"""Exact tools for finite groups, their group algebras, and hat-span Lie algebras."""

from .algebra import (
    AlgebraElement,
    BarLift,
    Scalar,
    add,
    convolve,
    element_from_json,
    element_to_json,
    lie_bracket,
    lift_hom_bar,
    parse_element,
    random_element,
    random_scalar,
    scale,
)
from .errors import (
    BasisMismatch,
    DomainMismatch,
    GroupMismatch,
    IndexOutOfRange,
    InvalidHom,
    InvalidPrime,
    InvalidSpec,
    NotInSpan,
    ParseError,
    PleskenLabError,
    SearchTooLarge,
)
from .functor import (
    FaithfulnessWitness,
    FullnessReport,
    LawReport,
    SubgroupCategory,
    check_full,
    check_functor_laws,
    find_faithfulness_counterexample,
    morphism_map,
    object_map,
    subgroup_category,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    GroupSpec,
    build_group,
    compose_homs,
    enumerate_homs,
    enumerate_subgroups,
    group_from_name,
    identity_hom,
    trivial_hom,
    validate_hom,
)
from .plesken import (
    HatLift,
    PleskenBasis,
    PleskenElement,
    bracket_expansion_check,
    canonical_basis,
    embed,
    hat,
    heisenberg_hat_closed_form,
    lift_hom_hat,
    plesken_bracket,
    reduce,
    structure_constants,
)

__version__ = "0.1.0"
