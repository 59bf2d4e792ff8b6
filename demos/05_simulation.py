"""Cycle-level simulation: noisy learning finds the analytic equilibrium.

Neither simulated player sees the opponent's strategy.  The target watches
jam durations and estimates their mean; the jammer watches silences and
estimates their upper bound; every ten cycles both play the best response to
their estimate.  With a strongly energy-constrained jammer the system lands
exactly on the border equilibrium within a couple of updates, reproducing
the closed-form prediction -- and with the estimation noise switched off the
update path coincides with the analytic best-response dynamics.

Run:  python demos/05_simulation.py
"""

from jamgame import (
    GameParams,
    SimConfig,
    StrategyProfile,
    brd,
    nash_closed_form,
    run_sim,
    updates_to_equilibrium,
)

p = GameParams(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=20e-6, c_t=8e9, c_t_star=1e6)
cfg = SimConfig(params=p, total_cycles=100, update_period_cycles=10, rng_seed=7)

trace = run_sim(cfg)
ne = nash_closed_form(p)
print(f"analytic equilibrium: {ne.regime.value} at x* = {ne.profile.x:.6e}, y* = {ne.profile.y:g}\n")
print("update  x               y               x est. by jammer  y est. by target")
columns = zip(trace.x, trace.y, trace.x_est_by_jammer, trace.y_est_by_target)
for k, (x, y, x_est, y_est) in enumerate(columns):
    print(f"  {k:>2}    {x:<14.6e}  {y:<14.6e}  {x_est:<16.6e}  {y_est:.6e}")
print(f"\nreached the equilibrium at update {updates_to_equilibrium(trace)}")
print(f"realized capacity over the run: {trace.realized_capacity:.0f} bit/s")
print(f"realized utilities: u_t = {trace.realized_utilities.u_t:.0f}, "
      f"u_j = {trace.realized_utilities.u_j:.0f} bit/s")

# estimation noise off: the strategy path IS the best-response dynamics
start = StrategyProfile(3e-4, 1e-4)
cfg2 = SimConfig(params=p, total_cycles=50, update_period_cycles=10,
                 rng_seed=0, x0=start.x, y0=start.y)
sim_path = run_sim(cfg2, perfect_observation=True).x
brd_path = brd(p, start, tol=1e-30, max_iter=5).iterates
print("\nperfect-observation hook vs analytic dynamics (x values):")
for k, (x, s) in enumerate(zip(sim_path, brd_path)):
    print(f"  update {k}: simulated {x:.9e}   analytic {s.x:.9e}")
