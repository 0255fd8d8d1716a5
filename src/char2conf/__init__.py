"""Universal conformal geometries over GF(2^n).

Quadratic forms and Arf invariants over perfect fields of characteristic 2,
virtual quadratic spaces, the nine-way classification of the associated
plane geometries, isometry groups of lines and cycles, and oriented
distance -- together with a brute-force oracle that re-verifies the
underlying algebraic lemmas on small fields.
"""

from .gf2field import GF2Field, Arf, CLASS_ZERO, CLASS_E, CLASS_INF, MAX_DEGREE
from .quadspace import (
    IsomGroup, QuadraticForm, arf_invariant, enumerate_isometries,
    isometry_order, spaces_isomorphic, witt_basis,
)
from .virtualspace import (
    VirtualSpace, embed_minimal, restriction_surjectivity, viso_group,
)
from .confgeo import (
    CLASS_TABLE, CycleFlags, Geometry, GeometryClass, ProjPoint,
    TransformationClass, arf_of, build_geometry, classify_cycle,
    classify_geometry, incident, normal_form, projective_reps,
    quadric_points, replace_omega, transformation_class, validate_geometry,
)
from .metric import (
    DistanceClass, distance, line_group, oriented_distance, ort_group,
    ort_plus, point_orbit,
)
from .oracle import VerificationReport, report_lines, run_all, run_suite

__all__ = [
    "GF2Field", "Arf", "CLASS_ZERO", "CLASS_E", "CLASS_INF", "MAX_DEGREE",
    "IsomGroup", "QuadraticForm", "arf_invariant", "enumerate_isometries",
    "isometry_order", "spaces_isomorphic", "witt_basis",
    "VirtualSpace", "embed_minimal", "restriction_surjectivity", "viso_group",
    "CLASS_TABLE", "CycleFlags", "Geometry", "GeometryClass", "ProjPoint",
    "TransformationClass", "arf_of", "build_geometry", "classify_cycle",
    "classify_geometry", "incident", "normal_form",
    "projective_reps", "quadric_points", "replace_omega",
    "transformation_class", "validate_geometry",
    "DistanceClass", "distance", "line_group", "oriented_distance",
    "ort_group", "ort_plus", "point_orbit",
    "VerificationReport", "report_lines", "run_all", "run_suite",
]
