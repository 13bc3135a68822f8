"""Factorization-length invariants of zero-sum sequence monoids over finite
abelian groups and of numerical monoids: atoms, Davenport constants, sets of
lengths, distance sets, unions of sets of lengths, elasticities, and
AAP/AAMP structural fits, by brute force and by closed form."""

__version__ = "0.1.0"

from .errors import InvalidArgumentError, ResourceLimitError
from .group import (
    FiniteAbelianGroup,
    GroupElement,
    add,
    elements,
    make_group,
    neg,
    order_of,
    zero,
)
from .sequence import (
    Sequence,
    divides,
    enumerate_zero_sum,
    is_zero_sum,
    mul,
    negate,
    parse_sequence,
    quotient,
    sigma,
)
from .atoms import (
    AtomSet,
    davenport,
    davenport_star,
    enumerate_atoms,
    is_atom,
)
from .lengths import (
    LengthSet,
    delta_of,
    dilate,
    elasticity_of,
    exhaustive_length_set,
    length_set,
    shift,
    sumset,
)
from .invariants import (
    SystemOfLengthSets,
    UnionOfLengths,
    closed_form_system,
    compare_with_closed_form,
    delta_of_group,
    delta_star,
    elasticity,
    has_two_D_lengthset,
    interval_support_check,
    is_half_factorial,
    lambda_k,
    min_distance,
    rho_k,
    system,
    union_k,
    unions_range,
)
from .structure_fit import (
    AAMPFit,
    best_aamp,
    fit_aamp,
    verify_structure_theorem,
    verify_unions_structure,
)
from .numerical import (
    NumericalMonoid,
    contains,
    make_numerical,
    num_elasticity,
    num_length_set,
    num_min_delta,
)
from .transfer import (
    KrullInstance,
    PrimeWord,
    beta,
    check_atom_correspondence,
    check_transfer,
    direct_length_set,
    make_instance,
)
from .cache import cache_load, cache_store
