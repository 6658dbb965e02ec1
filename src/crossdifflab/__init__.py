"""Numerical laboratory on the periodic torus: Kolmogorov equations,
parabolic duality, mollifier asymptotics and triangular cross-diffusion
systems."""

__version__ = "0.1.0"

from .torus import (Field, Grid, Trajectory, gradient_norm_sq, integrate,
                    laplacian, make_grid, norm, spacetime_norm)
from .mollify import (Kernel, check_widths, convolve, dirac_defect,
                      kernel_sequence, make_kernel, make_kernels)
from .kolmo import (KolmogorovProblem, SolveReport, cfl_timestep,
                    comparison_check, solve_forward, steps_for)
from .dual import (DualProblem, EstimateReport, duality_residual,
                   energy_identity_case_ii, energy_identity_case_iii,
                   solve_dual, stability_study, verify_apriori)
from .skt import (CoeffFamily, ReactionFamily, SktSpec, converge_study,
                  evaluate_coeff, regularization_study, solve_system, step)
from .weights import (Weight, a2_constant, domination_check,
                      maximal_boundedness, maximal_function)

__all__ = [name for name in dir() if not name.startswith("_")]
