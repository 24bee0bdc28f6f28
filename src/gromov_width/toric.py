"""Circle actions carved out of the torus action on a monotone toric manifold.

A primitive direction xi in the torus lattice restricts the torus action to
a circle whose weight along each edge at a vertex is w_j = <xi, e_j>.  The
edge directions e_j are the dual basis of the active facet normals u_j, so
xi = sum_j w_j u_j, and every toric fact is read off this one table of
weights (Delzant 1988; Cox-Little-Schenck, Toric Varieties, 3.2): the fixed
component through a vertex fills the face cut out by the facets with
w_j != 0, its moment level is -sum_j w_j, and the isotropy order of the
subcircle on the stratum of the face cut out by S is gcd{|w_j| : j not in S}.
An edge has order |w_j|, so the subcircle is semifree exactly when every
weight is -1, 0 or 1; a failure's witness, the violating face of least
codimension, is found from a coprime base of each vertex's weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .circle_action import (SEMIFREE, ActionData, FixedComponent, _trusted_component,
                            gradient_sphere_invariants)
from .errors import CrossCheckFailed, HypothesisFailed, InvalidInput, NotAVertex, ZeroVector
from .lattice import Vector, as_vector, content
from .polytope import (DelzantPolytope, EdgeSegment, VertexFigure, _dot, _fmt_point,
                       _point_label, in_reflexive_position)


@dataclass(frozen=True)
class SubcircleSpec:
    """A primitive subcircle direction inside the torus of a reflexive polytope."""

    xi: Vector
    polytope: DelzantPolytope

    def __post_init__(self):
        xi = as_vector(self.xi)
        g = content(xi)
        if g == 0:
            raise ZeroVector("subcircle direction must be nonzero")
        if g != 1:
            raise InvalidInput(
                f"direction {_fmt_point(xi)} is not primitive (gcd {g}); "
                "it would generate a non-effective subcircle")
        if len(xi) != self.polytope.dim:
            raise InvalidInput("direction length must equal the polytope dimension")
        if not in_reflexive_position(self.polytope):
            raise InvalidInput(
                "polytope is not in reflexive position; run monotone_normalize first")
        object.__setattr__(self, "xi", xi)

    @cached_property
    def edge_weights(self) -> dict[VertexFigure, tuple[int, ...]]:
        """<xi, e_j> per vertex, e_j dual to its j-th active facet in sorted order."""
        xi = self.xi
        return {v: tuple([_dot(xi, e) for e in v.edge_directions])
                for v in self.polytope.vertices}


def vertex_weights(spec: SubcircleSpec, vertex: VertexFigure) -> tuple[int, ...]:
    """Pairings of xi with the outgoing edge directions, zeros included."""
    if vertex not in spec.polytope.vertices:
        raise NotAVertex(f"{_fmt_point(vertex.position)} is not a vertex of the polytope")
    return tuple(sorted(spec.edge_weights[vertex]))


@dataclass(frozen=True)
class FaceIsotropy:
    face: tuple[int, ...]   # sorted facet indices cutting out the face
    order: int              # 0 means the face's stratum is fixed pointwise


@dataclass(frozen=True)
class IsotropyReport:
    entries: tuple[FaceIsotropy, ...]

    def is_semifree(self) -> bool:
        return all(e.order <= 1 for e in self.entries)

    def first_violation(self) -> FaceIsotropy | None:
        return next((e for e in self.entries if e.order > 1), None)


def isotropy_report(spec: SubcircleSpec) -> IsotropyReport:
    """Isotropy order of every face stratum, the whole polytope included.

    Entries are sorted by codimension then by facet indices, so the first
    violation is always on a face of least codimension.  This visits all
    2^dim faces at every vertex; no request path calls it.  It is the
    exhaustive reference that semifree_witness is tested against.
    """
    orders: dict[tuple[int, ...], int] = {}
    for v, weights in spec.edge_weights.items():
        members = v.active_facets
        for bits in range(1 << len(members)):
            face = tuple(m for j, m in enumerate(members) if bits >> j & 1)
            if face not in orders:
                orders[face] = gcd(*(abs(w) for j, w in enumerate(weights)
                                     if not bits >> j & 1))
    return IsotropyReport(tuple(FaceIsotropy(face, orders[face])
                                for face in sorted(orders, key=lambda f: (len(f), f))))


def face_label(polytope: DelzantPolytope, face: tuple[int, ...]) -> str:
    if not face:
        return "interior"
    indices = sorted(face)
    if len(indices) == polytope.dim:
        return _point_label(indices)
    return "&".join(polytope.facet_name(i) for i in indices)


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 that hold every prime of the numbers;
    the primes of one element divide exactly the same numbers.

    Factor refinement (Bach, Driscoll and Shallit 1993): a number sharing a
    factor g > 1 with a base element is split, with it, into g and the parts
    of both that are prime to g.  Only gcds are taken, so numbers with
    thousands of digits cost no factoring.
    """
    base: list[int] = []
    todo = list(numbers)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += (g, _prime_to(x, g), _prime_to(b, g))
                break
        else:
            base.append(x)
    return base


def _prime_to(x: int, g: int) -> int:
    """x with every prime factor of g divided out; the power divided out
    squares at each step, so a high power of a small prime costs few gcds."""
    h = gcd(x, g)
    while h > 1:
        x //= h
        h = gcd(x, h * h)
    return x


def semifree_witness(spec: SubcircleSpec) -> str | None:
    """Facet-level witness for a semifreeness failure, or None if semifree.

    The witness is isotropy_report(spec).first_violation(), found without the
    face lattice.  Take a face of order g > 1 at vertex v, a prime p | g and
    the element b of a coprime base of v's weights that p divides.  The face
    contains every facet j with gcd(b, w_j) = 1 (so w_j != 0), and those
    facets cut out a face whose order b divides.  So the least of these
    candidates by (codimension, facets) is the least violating face.
    """
    candidates = []
    for v, weights in spec.edge_weights.items():
        if -1 <= min(weights) and max(weights) <= 1:
            continue        # every edge at v has order 0 or 1
        for b in _coprime_base({abs(w) for w in weights if abs(w) > 1}):
            face = tuple(m for m, w in zip(v.active_facets, weights) if gcd(b, w) == 1)
            order = gcd(*(w for w in weights if gcd(b, w) > 1))
            candidates.append((len(face), face, order))
    if not candidates:
        return None
    _, face, order = min(candidates)
    kind = "facet" if len(face) == 1 else "face"
    return f"{kind} {face_label(spec.polytope, face)} isotropy order {order}"


def toric_action(spec: SubcircleSpec) -> ActionData:
    """Fixed-point data of the xi-subcircle on the toric manifold of the polytope.

    One pass over the weight table: the vertices are grouped by their facets
    with w_j != 0, and each group is one fixed component, built from its
    first vertex.  Its complex dimension is dim minus the number of those
    facets, its normal weights are the nonzero weights and its level is
    H = -sum_j w_j.  A vertex with every weight nonzero is its own group, an
    isolated fixed point named by its cached label.

    Why one vertex speaks for its group.  Let S be the active facets of v
    with w_j != 0 and F the face they cut out.  The edges of F at v have
    weight 0, so xi is orthogonal to F.  Every vertex u of F is active on S,
    and its edges inside F have weight 0.  If an edge e'_j of u with j in S
    had weight 0, xi would be orthogonal to the face cut out by S - {j};
    that face contains v, so w_j(v) = 0, a contradiction.  So the vertices
    with key S are exactly the vertices of F: the group fills its face.  In
    reflexive position u = -sum_j e'_j, so -sum_j w_j(u) = <xi, u>, which is
    constant on F: every vertex of the group has the same level.  SubcircleSpec
    admits only reflexive polytopes, whose vertices enumerate_vertices has
    checked, so neither fact needs checking per direction.
    """
    polytope = spec.polytope
    n = polytope.dim
    comps = []
    faces = set()
    for v, weights in spec.edge_weights.items():
        if all(weights):
            comps.append(_trusted_component(v.label, 0, tuple(sorted(weights)), -sum(weights)))
            continue
        face = tuple(f for f, w in zip(v.active_facets, weights) if w)
        if face not in faces:
            faces.add(face)
            comps.append(_trusted_component(
                face_label(polytope, face), n - len(face),
                tuple(sorted(w for w in weights if w)), -sum(weights)))
    comps.sort(key=lambda c: (-c.H, c.label))
    return ActionData(n=n, components=tuple(comps))


def _vertex_component(raw: tuple[int, ...], label: str,
                      built: dict[tuple[tuple[int, ...], str], FixedComponent]) -> FixedComponent:
    """The isolated fixed point whose edge weights are raw, zeros included;
    built is the memo, so each (raw, label) is built once."""
    comp = built.get((raw, label))
    if comp is None:
        comp = built[raw, label] = _trusted_component(
            label, raw.count(0), tuple(sorted(w for w in raw if w)), -sum(raw))
    return comp


@dataclass(frozen=True)
class EdgeInvariants:
    edge: EdgeSegment
    c1: int
    area: int
    lattice_length: int


def edge_cross_check(spec: SubcircleSpec) -> list[EdgeInvariants]:
    """Verify c1 = area = lattice length on every edge sphere xi rotates.

    Three independent routes to one integer: the Chern number from the vertex
    weight sums, the area from the moment values of the endpoints, and the
    lattice length from the polytope alone.  Zero-weight edges lie inside the
    fixed set and are skipped.  Requires a semifree spec.
    """
    witness = semifree_witness(spec)
    if witness is not None:
        raise HypothesisFailed(SEMIFREE, witness)
    weights = spec.edge_weights
    built: dict[tuple[tuple[int, ...], str], FixedComponent] = {}
    results = []
    for edge in spec.polytope.edges:
        w = _dot(spec.xi, edge.direction)
        if w == 0:
            continue
        lo, hi = edge.endpoints if w > 0 else (edge.endpoints[1], edge.endpoints[0])
        # reflexive vertices are lattice points: each coordinate is its numerator
        area = _dot(spec.xi, [b.numerator - a.numerator
                              for a, b in zip(lo.position, hi.position)])
        c1, _ = gradient_sphere_invariants(
            _vertex_component(weights[lo], "x", built),
            _vertex_component(weights[hi], "y", built))
        length = edge.lattice_length
        if not (c1 == area == length):
            raise CrossCheckFailed(
                f"edge {_fmt_point(edge.tail.position)}-{_fmt_point(edge.head.position)}: "
                f"c1 = {c1}, area = {area}, lattice length = {length}")
        results.append(EdgeInvariants(edge, c1, area, int(length)))
    return results
