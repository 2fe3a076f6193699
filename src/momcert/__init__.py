"""Momentum solvers whose convergence proofs run alongside the iterates.

Two discrete methods (a smooth momentum solver and its proximal
counterpart) and one continuous-time flow share a single Lyapunov
energy template. Every step is checked against the energy contraction
the theory promises, and every run reports the certified rate next to
the rate actually observed.

Each module's `__all__` is the one list of its public names; the package
exports all of them.
"""

from . import agm, certificates, driver, harness, ode, oracle, params, pgm, trace
from .agm import *
from .certificates import *
from .driver import *
from .harness import *
from .ode import *
from .oracle import *
from .params import *
from .pgm import *
from .trace import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (agm, certificates, driver, harness, ode, oracle, params, pgm, trace)
    for name in module.__all__
] + ["__version__"]
