"""qeuclid: exact workbench for the quantum Euclidean 2n-space at odd
roots of unity -- module construction, verification, and PI-degree.
"""

__version__ = "0.1.0"

from .scalars import (
    CyclotomicField,
    Cyclotomic,
    QLaurent,
    Rational,
    cyclotomic_polynomial,
    root_of_unity,
)
from .rewriter import (
    GENERIC_Q,
    NCPoly,
    check_covariant,
    check_local_confluence,
    multiply,
    omega,
    rewrite_rules,
    root_domain,
    straighten,
    verify_central_powers,
    verify_remark_identities,
)
from .pidegree import (
    DegreeReport,
    build_H,
    image_cardinality,
    kernel_basis,
    pi_degree,
    smith_normal_form,
)
from .repmod import (
    GeneratorMatrices,
    GuardError,
    ModuleParams,
    ParamError,
    act,
    build_module,
    dimension,
    random_module_params,
)
from .verify import (
    VerificationReport,
    check_central_scalars,
    check_dimension_bound,
    check_eigen_separation,
    check_omega_action,
    check_relations,
    commutant_dimension,
    run_verification,
)

__all__ = [
    "CyclotomicField", "Cyclotomic", "QLaurent", "Rational",
    "cyclotomic_polynomial", "root_of_unity",
    "GENERIC_Q", "NCPoly", "check_covariant", "check_local_confluence",
    "multiply", "omega", "rewrite_rules", "root_domain",
    "straighten", "verify_central_powers", "verify_remark_identities",
    "DegreeReport", "build_H", "image_cardinality",
    "kernel_basis", "pi_degree", "smith_normal_form",
    "GeneratorMatrices", "GuardError", "ModuleParams", "ParamError",
    "act", "build_module", "dimension", "random_module_params",
    "VerificationReport", "check_central_scalars", "check_dimension_bound",
    "check_eigen_separation", "check_omega_action", "check_relations",
    "commutant_dimension", "run_verification",
    "__version__",
]
