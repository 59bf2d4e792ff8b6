"""Best responses of the two players.

The target node picks x, the largest silence it may schedule after a jammed
packet; the jammer picks y, the mean duration of its interference bursts.
Each side has a closed-form best response: the target's comes out of the
Lambert W function, the jammer's is a clamped trade-off curve chi(x) that is
positive only on an interval around its peak x_hat.

Run:  python demos/01_best_responses.py
"""

from jamgame import (
    GameParams,
    best_response_jammer,
    best_response_target,
    chi,
    thresholds,
    x_hat,
)
from jamgame.figures import log_grid

p = GameParams(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6)

print("physics: reaction delay 15 us, clock precision 1 us, 2 W both sides")
print(f"jammer cost weight c_t = {p.c_t:g} bit/(s*J)\n")

print("target's best response x = b_t(y) grows with the jamming it faces:")
for y in [0.0, 1e-4, 1e-3, 1e-2]:
    print(f"  y = {y:8.1e} s  ->  x = {best_response_target(p, y):.4e} s")

xh = x_hat(p)
print(f"\njammer's trade-off curve chi peaks at x_hat = {xh:.4e} s:")
for x in [2e-6, 1e-5, xh, 1e-3, 5e-3]:
    print(f"  x = {x:8.2e} s  ->  chi = {chi(p, x):+.4e}  ->  b_j = {best_response_jammer(p, x):.4e} s")

th = thresholds(p)
print(f"\ncost thresholds for this geometry:")
print(f"  c_t_tilde = {th.c_t_tilde:.4e}  (border of active jamming at the Nash point)")
print(f"  c_t_max   = {th.c_t_max:.4e}  (above this the jammer never jams at all)")

# the same curve, as the sweep command would emit it
ys = log_grid(1e-6, 1e-2, 5)
print("\nCSV equivalent of `jamgame sweep CONFIG --figure brX --log-range 1e-6 1e-2 5`:")
print("y,x_best")
for y, x in zip(ys.tolist(), best_response_target(p, ys).tolist()):
    print(f"{y!r},{x!r}")
