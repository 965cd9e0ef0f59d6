"""Two-level atom in a leaky cavity with a Lorentzian loss reservoir.

Time-dependent decay rates of the two dressed-state channels, the exact
density-matrix solution, direct master-equation propagation, and analysis
tools for the population-trapping effect the unequal rates produce.
"""

from .analysis import (FigureTable, FitResult, TrappingReport,
                       asymptotic_rate_ratio, detect_plateau, figure_data,
                       reference_case, short_time_exponent)
from .dynamics import (SystemParams, Trajectory, evolve_analytic,
                       evolve_phenomenological, evolve_tcl_ode, hamiltonian,
                       initial_state_atom_excited, populations, rho_analytic)
from .numerics import (OdeSolveError, QuadratureError, ToleranceSpec,
                       adaptive_quadrature, cumulative_integral, ode_solve,
                       panel_gauss)
from .spectral import (LorentzianSpectrum, accumulated_rate, rate_closed_form,
                       rate_quadrature_oracle, spectral_density,
                       stationary_rate)

__version__ = "0.1.0"

__all__ = [
    "ToleranceSpec", "QuadratureError", "OdeSolveError",
    "adaptive_quadrature", "panel_gauss", "cumulative_integral", "ode_solve",
    "LorentzianSpectrum", "spectral_density", "rate_closed_form",
    "stationary_rate", "rate_quadrature_oracle", "accumulated_rate",
    "SystemParams", "Trajectory", "hamiltonian",
    "initial_state_atom_excited", "rho_analytic", "populations",
    "evolve_analytic", "evolve_tcl_ode", "evolve_phenomenological",
    "TrappingReport", "FitResult", "FigureTable", "detect_plateau",
    "short_time_exponent", "asymptotic_rate_ratio", "reference_case",
    "figure_data",
    "__version__",
]
