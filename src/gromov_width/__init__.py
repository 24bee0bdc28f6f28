"""Exact Gromov-width computation for closed monotone symplectic manifolds
carrying a semifree Hamiltonian circle action with isolated maximum, working
purely from moment-map fixed-point data.  All arithmetic is over Z and Q;
nothing is ever rounded.
"""

from .circle_action import (ActionData, CheckResult, FixedComponent, WidthReport,
                            action_from_json, action_to_json, check_isolated_max,
                            check_monotone_consistency, check_semifree,
                            gradient_sphere_invariants, gromov_width, load_action,
                            normalize_moment, product_action, product_checks,
                            product_level_gap, product_width, run_all_checks)
from .errors import (AmbiguousMax, CrossCheckFailed, DegreeMismatch, Empty, Error,
                     HypothesisFailed, HypothesisFailure, InvalidInput, NotDelzant,
                     NotEnoughComponents, NotMonotone, Unbounded)
from .grassmannian import GrassmannianSpec, grassmannian_action
from .lattice import pairing, primitive_direction, quotient_order
from .polytope import (DelzantPolytope, EdgeSegment, HalfSpace, VertexFigure,
                       enumerate_edges, enumerate_vertices, load_polytope,
                       monotone_normalize, polytope_from_json, polytope_to_json)
from .seidel import (EntryStatus, SeidelEntry, SeidelStructure, degree_check,
                     seidel_from_width, seidel_structure)
from .toric import (EdgeInvariants, IsotropyReport, SubcircleSpec, edge_cross_check,
                    isotropy_report, semifree_witness, toric_action, vertex_weights)

__version__ = "0.1.0"

__all__ = [
    "ActionData", "AmbiguousMax", "CheckResult", "CrossCheckFailed",
    "DegreeMismatch", "DelzantPolytope", "EdgeInvariants", "EdgeSegment", "Empty",
    "EntryStatus", "Error", "FixedComponent", "GrassmannianSpec", "HalfSpace",
    "HypothesisFailed", "HypothesisFailure", "InvalidInput", "IsotropyReport",
    "NotDelzant", "NotEnoughComponents", "NotMonotone", "SeidelEntry", "SeidelStructure",
    "SubcircleSpec", "Unbounded", "VertexFigure", "WidthReport", "action_from_json",
    "action_to_json", "check_isolated_max", "check_monotone_consistency",
    "check_semifree", "degree_check", "edge_cross_check", "enumerate_edges",
    "enumerate_vertices", "gradient_sphere_invariants", "grassmannian_action",
    "gromov_width", "isotropy_report", "load_action", "load_polytope",
    "monotone_normalize", "normalize_moment", "pairing", "polytope_from_json",
    "polytope_to_json", "primitive_direction", "product_action", "product_checks",
    "product_level_gap", "product_width", "quotient_order", "run_all_checks",
    "seidel_from_width", "seidel_structure", "semifree_witness", "toric_action",
    "vertex_weights",
]
