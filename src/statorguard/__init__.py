"""Stator ground-fault protection toolkit for high-impedance-grounded
synchronous generators.

Simulates the third-harmonic voltage ratio and sub-harmonic injection
measurement chains, runs adaptive (Kalman-tracked) and fixed-baseline
detection schemes on them, estimates insulation parameters, locates
ground faults along the winding, and scores scheme reliability across
fault and disturbance sweeps.

The public names are each module's __all__: the signal toolbox
(signalcore), plant models (plantsim), third-harmonic ratio schemes
(a64g2), injection scheme (a64s) and orchestration (harness).
"""

from . import a64g2, a64s, harness, plantsim, signalcore
from .a64g2 import *  # noqa: F401,F403
from .a64s import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .plantsim import *  # noqa: F401,F403
from .signalcore import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *signalcore.__all__, *plantsim.__all__, *a64g2.__all__,
           *a64s.__all__, *harness.__all__]
