"""Photon counting statistics of the driven dissipative Dicke model.

The package computes, in the thermodynamic limit, the critical couplings,
Bogoliubov spectra, mode occupations and the full photon counting
statistics (cumulant generating function and time-dependent cumulants) of a
collection of two-level atoms coupled to a lossy cavity mode, and verifies
the analytic results against brute-force finite-dimensional Lindblad
calculations.
"""

from .errors import (BranchAmbiguity, CriticalSingularity, CutoffTooSmall,
                     DegenerateDenominator, DickeFcsError,
                     EigenvalueCrossing, GapRegion, InconsistentMeanField,
                     InvalidParams, NonConvergence, NumericalRange,
                     UnstableRegion)
from .jets import CountingJet
from .model import (CriticalCouplings, EffectiveQuadratic, MeanField,
                    ModelParams, Phase, classify_phase, critical_couplings,
                    effective_parameters, solve_displacements)
from .bogoliubov import (BogoliubovFrame, eigenenergies, frame_coefficients,
                         mixing_angle, numeric_diagonalize, stiffness_matrix)
from .prep_dynamics import (GaussianIC, OdeCoefficients, PState, evolve,
                            initial_state, log_gaussian_mass,
                            ode_coefficients, ode_rhs, propagate,
                            steady_a_rate, steady_state)
from .statistics import (CumulantSet, Occupations, RelaxationTimes,
                         SystemFrame, cgf_finite_time, cgf_rate, cumulants,
                         fano_factors, mode_cgf_rate, occupations,
                         occupations_from_state, relaxation_times,
                         system_frame)
from .oracle import (TruncatedLiouvillian,
                     build_dicke_liouvillian, build_rwa_liouvillian,
                     cumulant_rates_fd, dominant_eigenvalue,
                     finite_difference_weights, steady_state_vector,
                     trace_vector)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "CriticalCouplings", "Phase", "MeanField",
    "EffectiveQuadratic", "critical_couplings", "classify_phase",
    "solve_displacements", "effective_parameters",
    "BogoliubovFrame", "stiffness_matrix", "eigenenergies", "mixing_angle",
    "frame_coefficients", "numeric_diagonalize",
    "CountingJet", "GaussianIC", "PState", "OdeCoefficients",
    "ode_coefficients", "initial_state", "ode_rhs", "steady_state",
    "steady_a_rate", "evolve", "propagate", "log_gaussian_mass",
    "SystemFrame", "CumulantSet", "Occupations", "RelaxationTimes",
    "system_frame", "cgf_rate", "mode_cgf_rate", "cgf_finite_time",
    "cumulants", "fano_factors", "occupations", "occupations_from_state",
    "relaxation_times",
    "TruncatedLiouvillian", "build_rwa_liouvillian",
    "build_dicke_liouvillian", "steady_state_vector", "dominant_eigenvalue",
    "finite_difference_weights", "cumulant_rates_fd", "trace_vector",
    "DickeFcsError", "InvalidParams", "InconsistentMeanField",
    "UnstableRegion", "GapRegion", "CriticalSingularity", "BranchAmbiguity",
    "NonConvergence", "NumericalRange", "DegenerateDenominator",
    "CutoffTooSmall",
    "EigenvalueCrossing",
    "__version__",
]
