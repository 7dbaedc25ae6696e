"""tropibound: exact lower bounds on positive real roots of vertically
parametrized polynomial systems, via the positive part of tropicalized
kernels, with a decorated-simplex cross-check and a floating-point
witness harness."""

from tropibound.bergman import (
    PositiveFan,
    fine_fan,
    is_member,
    is_positive_member,
    positive_fan,
)
from tropibound.intersection import (
    IntersectionPoint,
    IntersectionReport,
    intersect_via_fan,
    intersect_via_vertices,
    is_isolated,
    lower_bound,
    tangent_direction,
    validate_inputs,
)
from tropibound.matroid import (
    Flat,
    FlagOfFlats,
    OrientedMatroid,
    SignedCircuit,
    all_flats,
    circuits_via_subsets,
    closure,
    initial_circuit,
    maximal_flags,
    realize_from_kernel,
)
from tropibound.rational import RationalMatrix, RationalVector, vector
from tropibound.subdivision import (
    Cell,
    DecoratedSimplex,
    decorated_count,
    decorated_to_tropical,
    full_cells,
    is_triangulation,
    positively_decorated,
)
from tropibound.systems import BoundReport, CRNModel, VerticalSystem, assemble_crn, bound

__all__ = [
    "BoundReport",
    "CRNModel",
    "Cell",
    "DecoratedSimplex",
    "Flat",
    "FlagOfFlats",
    "IntersectionPoint",
    "IntersectionReport",
    "OrientedMatroid",
    "PositiveFan",
    "RationalMatrix",
    "RationalVector",
    "SignedCircuit",
    "VerticalSystem",
    "all_flats",
    "assemble_crn",
    "bound",
    "circuits_via_subsets",
    "closure",
    "decorated_count",
    "decorated_to_tropical",
    "fine_fan",
    "full_cells",
    "initial_circuit",
    "intersect_via_fan",
    "intersect_via_vertices",
    "is_isolated",
    "is_member",
    "is_positive_member",
    "is_triangulation",
    "lower_bound",
    "maximal_flags",
    "positive_fan",
    "positively_decorated",
    "realize_from_kernel",
    "tangent_direction",
    "validate_inputs",
    "vector",
]

__version__ = "0.1.0"
