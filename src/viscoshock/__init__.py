"""Viscous shock profiles and vanishing-viscosity convergence for 1-D
Lagrangian gas dynamics with a volume-dependent viscous coefficient."""

from . import (convergence_harness, energy_diagnostics, errors, euler_waves,
               lagrangian_solver, shock_profile)
from .convergence_harness import *  # noqa: F401,F403
from .energy_diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .euler_waves import *  # noqa: F401,F403
from .lagrangian_solver import *  # noqa: F401,F403
from .shock_profile import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module lists its own public names; the package exports exactly those
__all__ = (errors.__all__ + euler_waves.__all__ + shock_profile.__all__
           + lagrangian_solver.__all__ + energy_diagnostics.__all__
           + convergence_harness.__all__)
