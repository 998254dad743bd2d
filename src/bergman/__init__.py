"""Numerical laboratory for Bergman kernels of model polarized surfaces.

Covers flat cyclic-quotient orbifolds C^n/Z_q (closed form plus an invariant
monomial oracle), resonance certificates and sub-unity kernel points,
surfaces of revolution on CP^1 (conformal reduction, monomial norms, kernel
fields), exact CP^n Fubini-Study values, perturbed-metric Gram pipelines,
and the experiment drivers built on top of them.
"""

__version__ = "0.1.0"

from .models import (
    CyclicWeights,
    PerturbedPotential,
    RevolutionProfile,
    eval_f_k,
    f_k_alpha,
    f_k_domain_end,
    make_cone_family,
    make_cyclic_weights,
    rescale_to_area,
    round_sphere,
)
from .orbifold import (
    OracleResult,
    admissible_indices,
    degree_cap_for,
    min_on_ray,
    rho_closed,
    rho_closed_detailed,
    rho_oracle,
)
from .resonance import (
    ResonanceCertificate,
    SubUnityWitness,
    construct_certificate,
    find_subunity_point,
    verify_certificate,
)
from .potential import PotentialTable, build_potential
from .kernels import (
    KernelField,
    cpn_fs_exact,
    cpn_fs_oracle,
    kernel_area_integral,
    log_monomial_norms,
    monomial_norms,
    peak_section_tail,
    rho_at_u,
    rho_revolution,
)
from .gram import (
    GramModel,
    fs_log_norms,
    gram_matrix,
    perturbed_area_density,
    perturbed_scalar_curvature,
    rho_gram,
    rho_gram_field,
)
from .analysis import (
    ExpansionReport,
    SweepRow,
    cone_sweep,
    flat_z3_witness_value,
    fs_current_sup,
    lp_deviation,
    scalar_curvature_profile,
    sweep_verdicts,
    tyz_a1_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
