"""Numerical laboratory for geometric linearization of optimal transport.

The package builds discrete optimal plans for strongly p-convex costs,
solves the degenerate Neumann problem that linearizes them, and measures
the inequalities connecting the two descriptions at desk scale.  Each
module's ``__all__`` is its public surface, bound here as it stands.
"""

from .costs import *
from .measures import *
from .meshing import *
from .neumann import *
from .trajectories import *
from .transport import *

__version__ = "0.1.0"
