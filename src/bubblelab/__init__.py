"""Spherical Voronoi multi-bubble laboratory.

Construct, measure, deform and spectrally analyze spherical Voronoi clusters
on S^n: standard bubbles, conformal and Gram perturbations, conformal-to-volume
operators and their trace identities, Plateau certification, and the discrete
second-variation spectrum on S^2 boundary networks.
"""

from .cluster import (ClusterParams, InterfaceGraph, classify_point,
                      complete_graph, detect_interfaces, load_cluster,
                      perpendicular_pole, recentered, save_cluster,
                      validate_spherical)
from .deform import (GramInvarianceReport, LseSolution, PcfReport,
                     conformal_step, gram_invariance_check, gram_path,
                     lse_solve, pcf_detect)
from .measure import (MeasureReport, WeightedLaplacian, measure_cluster,
                      measure_exact_s2, measure_mc, weighted_laplacian,
                      weighted_laplacians)
from .operators import (AmbientToSimplexOperator, SimplexOperator,
                        check_product_identity, conformal_to_volume_pcf,
                        conformal_to_volume_relaxed, locality_probe,
                        normal_moment_operator, quasi_center_operator,
                        trace_identity_residual)
from .plateau import (BlowUpCone, PlateauCertificate, blowup_at, certify_plateau,
                      classify_q3, plateau_at, triple_point_angles)
from .quantum_graph import (JacobiSystem, QuantumGraph, assemble_jacobi,
                            build_graph, conformal_jacobi_solve,
                            eigen_count_positive, volume_derivative)
from .standard import (ModelProfilePoint, NewtonConfig, apply_mobius,
                       equal_volume_standard, mobius_point_flow, model_profile,
                       pde_residual, standard_of_curvature, standard_of_volume)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
