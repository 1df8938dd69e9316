"""dropflow: planar quasi-static droplet flow and ball-stability toolkit.

A spectral boundary-integral solver for the volume-normalized torsion
problem on star-shaped planar domains, the integral identities its solution
satisfies, stability metrics against the equilibrium ball, and an adaptive
normal-velocity flow driven by the boundary gradient.
"""

__version__ = "0.1.0"

from .config import ScenarioConfig, parse_config, parse_config_text
from .dynamics import (DecayFit, DissipationReport, FlowState, Trajectory,
                       VelocityLaw, advance_step, dissipation_residuals,
                       fit_decay_rate, polynomial_law, quadratic_law,
                       run_flow, save_timeseries_csv)
from .errors import (ConfigError, ConvergenceError, EvaluationError,
                     FlowHalt, ShapeError, SolverError)
from .geometry import (Circle, Ellipse, FourierShape, InteriorQuadrature,
                       Samples, StarDomain, asymmetry_to_ball,
                       build_star_domain, interior_quadrature,
                       lemma_distance_check, load_domain_csv, parse_shape,
                       ray_radii, rho_reflection_min, save_domain_csv)
from .identities import IdentityReport, identity_suite
from .matcalc import (growth_constant, maclaurin_chain, quadratic_growth_gap,
                      sym_funcs)
from .stability import (BallQuantities, StabilityReport, ball_closed_forms,
                        ball_consistency_notes, faber_krahn_gap,
                        l2_distance_lhs, normalized_domain, serrin_deficit,
                        stability_report, sweep_stability, total_energy,
                        write_sweep_csv)
from .torsion import TorsionSolution, solve_torsion

__all__ = [name for name in dir() if not name.startswith("_")]
