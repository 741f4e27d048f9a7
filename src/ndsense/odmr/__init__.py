"""ODMR thermometry: lineshapes, scan synthesis, shift fitting, sensitivity
bounds, Allan analysis, and temperature calibration.

The package exports the `__all__` of each submodule. These second names
stay: the CLI looks them up as `odmr.<name>` at call time, and the
benchmark's tracer wraps them in this package's namespace, so a wrapped
function is the one the CLI calls.
"""

from . import allan, kappa, lineshape, scan, sensitivity
from .allan import *  # noqa: F403
from .kappa import *  # noqa: F403
from .lineshape import *  # noqa: F403
from .scan import *  # noqa: F403
from .sensitivity import *  # noqa: F403

__all__ = [*allan.__all__, *kappa.__all__, *lineshape.__all__, *scan.__all__,
           *sensitivity.__all__]
