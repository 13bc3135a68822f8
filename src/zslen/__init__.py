"""Factorization-length invariants of zero-sum sequence monoids over finite
abelian groups and of numerical monoids: atoms, Davenport constants, sets of
lengths, distance sets, unions of sets of lengths, elasticities, and
AAP/AAMP structural fits, by brute force and by closed form."""

__version__ = "0.1.0"

from importlib import import_module

# each exported name by the submodule that defines it; the submodule is
# imported when one of its names is first read (PEP 562), so `import zslen`
# loads none, and a command line loads only what its command runs
_EXPORTS = {
    "errors": ("InvalidArgumentError", "ResourceLimitError"),
    "group": ("FiniteAbelianGroup", "GroupElement", "add", "elements", "make_group", "neg",
              "order_of", "zero"),
    "sequence": ("Sequence", "divides", "enumerate_zero_sum", "is_zero_sum", "mul", "negate",
                 "parse_sequence", "quotient", "sigma"),
    "atoms": ("AtomSet", "davenport", "davenport_star", "enumerate_atoms", "is_atom", "limits"),
    "lengths": ("LengthSet", "delta_of", "dilate", "elasticity_of", "exhaustive_length_set",
                "length_set", "shift", "sumset"),
    "invariants": ("SystemOfLengthSets", "UnionOfLengths", "closed_form_system",
                   "compare_with_closed_form", "delta_of_group", "delta_star", "elasticity",
                   "has_two_D_lengthset", "interval_support_check", "is_half_factorial",
                   "lambda_k", "min_distance", "rho_k", "system", "union_k", "unions_range"),
    "structure_fit": ("AAMPFit", "best_aamp", "fit_aamp", "verify_structure_theorem",
                      "verify_unions_structure"),
    "numerical": ("NumericalMonoid", "contains", "make_numerical", "num_elasticity",
                  "num_length_set", "num_min_delta"),
    "transfer": ("KrullInstance", "beta", "check_atom_correspondence", "check_transfer",
                 "direct_length_set", "make_instance"),
    "cache": ("cache_load", "cache_store"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An exported name, bound here once read; else a submodule (zslen.cli)."""
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
