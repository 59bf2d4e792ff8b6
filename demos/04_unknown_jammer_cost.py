"""Committing under uncertainty about the jammer's energy cost.

The committed strategy needs the jammer's cost weight c_t, which a real
target rarely knows.  Given only a uniform prior on it, the target assumes a
weight xi, commits to the matching strategy, and lives with the outcome.
This demo evaluates the expected utility of each assumption in closed form,
locates the best assumption xi_opt, and shows the realized efficiency of the
practical choices against the true weight.

Note the structural asymmetry: underestimating the weight overshoots the
silence bound (harmless but slow), while overestimating it leaves the
channel jammed.  With a wide prior that asymmetry costs real efficiency at
the cheap-jammer end no matter which fixed assumption is made.

Run:  python demos/04_unknown_jammer_cost.py
"""

from dataclasses import replace

import numpy as np

from jamgame import (
    GameParams,
    UniformPrior,
    efficiency,
    expected_utility_closed,
    xi_opt,
)

base = GameParams(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6)
prior = UniformPrior(xi_min=1e5, xi_max=1e9)

print("expected utility of committing under the assumed weight xi:")
print(" xi          closed form")
for xi in np.logspace(5, 9, 5):
    c = expected_utility_closed(base, prior, float(xi))
    print(f" {xi:9.3g}   {c:12.2f}")

opt = xi_opt(base, prior)
print(f"\nbest assumption: xi_opt = {opt:.4g} "
      f"(expected utility {expected_utility_closed(base, prior, opt):.1f} bit/s)")

xi_mean = 0.5 * (prior.xi_min + prior.xi_max)
print("\nrealized efficiency vs the (unknown) true weight:")
print(" true c_t    e(xi_opt)  e(xi_mean)  e(xi_max)  e(xi_min)")
for c_t in np.logspace(5, 9, 9):
    p = replace(base, c_t=float(c_t))
    print(
        f" {c_t:9.3g}   {efficiency(p, opt):8.3f}  {efficiency(p, xi_mean):9.3f}"
        f"  {efficiency(p, prior.xi_max):9.3f}  {efficiency(p, prior.xi_min):9.3f}"
    )

print("\nassuming the top of the prior is nearly as good as optimizing, and")
print("assuming the bottom collapses once the true jammer is energy-bound.")
