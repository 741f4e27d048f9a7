"""ODMR thermometry: lineshapes, scan synthesis, shift fitting, sensitivity
bounds, Allan analysis, and temperature calibration.

The package exports the `__all__` of each submodule.
"""

from . import allan, kappa, lineshape, scan, sensitivity
from .allan import *  # noqa: F403
from .kappa import *  # noqa: F403
from .lineshape import *  # noqa: F403
from .scan import *  # noqa: F403
from .sensitivity import *  # noqa: F403

__all__ = [*allan.__all__, *kappa.__all__, *lineshape.__all__, *scan.__all__,
           *sensitivity.__all__]
