"""jamgame: equilibria and simulation of the timing-channel jamming game.

A transmitter under reactive jamming moves information into the *timing* of
its silences; the jammer trades disruption against energy.  This package
provides the closed-form best responses and Nash equilibrium of that game,
best-response dynamics with a contraction certificate, the Stackelberg
solution under perfect and uncertain knowledge of the jammer's cost, and a
cycle-level simulator cross-checked against the analytic equilibria.
"""

import importlib

# Each numpy-free module's __all__ is its public API, re-exported here whole.
from . import best_response, errors, lambertw, model, nash, stackelberg
from .best_response import *  # noqa: F403
from .errors import *  # noqa: F403
from .lambertw import *  # noqa: F403
from .model import *  # noqa: F403
from .nash import *  # noqa: F403
from .stackelberg import *  # noqa: F403

__version__ = "0.1.0"

# Names from the numpy-backed modules, which are imported on first access
# (PEP 562): importing the package, and every query, leaves numpy unloaded.
_LAZY = {
    "belief": ("UniformPrior", "efficiency", "expected_utility_closed", "g_of_xi",
               "realized_utility", "xi_opt"),
    "sim": ("SimConfig", "SimTrace", "run_sim", "updates_to_equilibrium"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    *errors.__all__, *lambertw.__all__, *model.__all__, *best_response.__all__, *nash.__all__,
    *stackelberg.__all__, *_MODULE_OF,
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
