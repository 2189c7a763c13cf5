"""Exact computations with quiver algebras, path coalgebras, incidence
(co)algebras, their dual and convolution algebras, and finite duals."""

from .scalars import QQ, PrimeField, field_from_spec
from .linalg import SparseVector, codimension_of_span, rank, rank1_decompose_2x2, rref, solve_membership
from .quiver import (
    FAMILIES,
    Family,
    Path,
    Quiver,
    check_recovery_clause_equivalence,
    check_recovery_condition,
    check_semiperfect_condition,
    check_unique_path_condition,
    compose_paths,
    disjoint_union,
    enumerate_paths,
    is_acyclic,
)
from .coalgebra import (
    CoalgElement,
    basis_tables,
    comultiply,
    counit,
    grouplike_coradical,
    hull_span,
    subcoalgebra_closure,
    wedge,
)
from .algebra import (
    bialgebra_check,
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    contains_cofinite_monomial_ideal,
    local_unit,
    monomial_closure,
    multiply,
)
from .dual import (
    Functional,
    convolve,
    gamma_membership,
    hit_action,
    is_rational_left,
    psi_embed,
    reflexivity_verdict,
)
from .finite_dual import (
    StructuredAlgebra,
    dual_coalgebra,
    is_in_finite_dual,
    is_in_theta_image,
    structured_algebra,
    theta_embed,
    theta_recovery_check,
)
from .incidence import (
    Poset,
    hasse_quiver,
    incidence_dual_recovery_check,
    incidence_semiperfect_check,
    phi_embed,
)
from .representation import (
    LeftModule,
    Representation,
    annihilator_monomial_check,
    comodule_from_module,
    cycle_quotient_module,
    is_locally_nilpotent,
    module_from_comodule,
)
from .products import (
    LatticeWalk,
    TensorProduct,
    alpha_embed,
    coreflexivity_verdict,
    decompose_product_path,
    factor_perp_element,
    lattice_walks,
    product_quiver,
    saturate_subcoalgebra,
    star_perp_factorization,
    walk_path,
)

__version__ = "0.1.0"
