"""muse: quantify the use of RF spectrum.

Spectrum is consumed by transmitters (the power they deposit) and by
receivers (the interference constraints they impose).  This package
evaluates both over a discretized space-time-frequency grid: per-cell
occupancy, opportunity and liability; per-entity and system-wide
consumption spaces; the performance spaces of spectrum management
functions; and RF connectivity between adjacent regions.

Each module's ``__all__`` declares its share of the package's names.
"""

__version__ = "0.1.0"

from .connectivity import *
from .consumption import *
from .grid import *
from .model import *
from .propagation import *
from .scenario_io import *
from .smf import *
from .units import *

# each star import also binds its module here; capitalised names (classes, exceptions, OMNI) first, each group
# sorted case-insensitively
__all__ = sorted(
    (name for module in (connectivity, consumption, grid, model, propagation, scenario_io, smf, units)
     for name in module.__all__),
    key=lambda name: (not name[0].isupper(), name.lower()),
)
