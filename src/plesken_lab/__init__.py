"""Exact tools for finite groups, their group algebras, and hat-span Lie algebras.

Importing the package loads none of its modules: each public name loads its
module on first use (PEP 562), so a command that needs only ``groups`` never
pays for ``algebra``, ``plesken`` or ``functor``.
"""

from importlib import import_module

_MODULE_NAMES = {
    "algebra": (
        "AlgebraElement",
        "BarLift",
        "Scalar",
        "convolve",
        "element_to_json",
        "lie_bracket",
        "lift_hom_bar",
        "parse_element",
    ),
    "errors": (
        "DomainMismatch",
        "GroupMismatch",
        "IndexOutOfRange",
        "InvalidHom",
        "InvalidPrime",
        "InvalidSpec",
        "ParseError",
        "PleskenLabError",
        "SearchTooLarge",
    ),
    "functor": (
        "FaithfulnessClass",
        "FullnessReport",
        "LawReport",
        "SubgroupCategory",
        "check_full",
        "check_functor_laws",
        "find_faithfulness_counterexample",
        "morphism_map",
        "object_map",
        "subgroup_category",
    ),
    "groups": (
        "FiniteGroup",
        "GroupHom",
        "build_group",
        "compose_homs",
        "enumerate_homs",
        "enumerate_subgroups",
        "group_from_name",
        "identity_hom",
        "trivial_hom",
        "validate_hom",
    ),
    "plesken": (
        "PleskenBasis",
        "canonical_basis",
        "hat",
        "heisenberg_hat_closed_form",
        "lift_hom_hat",
        "structure_constants",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_NAMES:  # `plesken_lab.groups` without `import plesken_lab.groups`
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached: a name always reads its module's current binding
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
