"""Simulator and analysis toolkit for a spin-orbit-coupled trapped-atom
AC accelerometer.

Layers, bottom up:

- ``trap``: trap parameters, normal modes, closed-form classical paths,
  the differential-path kernel ``h_perp``.
- ``signals``: time-dependent drive accelerations g(t).
- ``pulses``: exact pulse-sequence engine on spin-labeled coherent branches.
- ``response``: analytic and numerically extracted transfer functions.
- ``thermal``: Glauber-P thermal averaging, suppression factors, MC sampler.
- ``sensitivity``: shot-noise sensitivity budget and trap optimization.
- ``cli``: command-line front end emitting deterministic CSV/JSON.

Each layer's ``__all__`` is its public API (``constants`` and ``errors``
included); the package re-exports all of them, ``cli`` aside.
"""

import sys as _sys

from .constants import *
from .errors import *
from .trap import *
from .signals import *
from .pulses import *
from .response import *
from .thermal import *
from .sensitivity import *

__version__ = "0.1.0"

# read from sys.modules: the package attribute ``sensitivity`` is the function,
# which the star import above binds over the submodule
__all__ = [
    name
    for layer in (
        "constants", "errors", "trap", "signals", "pulses", "response", "thermal", "sensitivity"
    )
    for name in _sys.modules[f"{__name__}.{layer}"].__all__
]
