"""Two-level atom in a leaky cavity with a Lorentzian loss reservoir.

Time-dependent decay rates of the two dressed-state channels, the exact
density-matrix solution, direct master-equation propagation, and analysis
tools for the population-trapping effect the unequal rates produce.
Each module's ``__all__`` is re-exported here.
"""

from . import analysis, dynamics, numerics, spectral
from .analysis import *
from .dynamics import *
from .numerics import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [*numerics.__all__, *spectral.__all__, *dynamics.__all__,
           *analysis.__all__, "__version__"]
