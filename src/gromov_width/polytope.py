"""Delzant moment polytopes in half-space form.

A polytope is a list of facets, each a primitive inward normal with a
rational offset (constraint <x, normal> >= offset).  Vertex enumeration runs
in exact integer arithmetic (offsets scaled by the lcm of their
denominators) and verifies the smoothness condition at every vertex:
exactly dim facets meet there and their normals form a Z-basis.  On a
Delzant polytope it solves one facet subset for a first vertex (Cramer's
rule by fraction-free elimination) and walks the edge graph from there, one
integer pivot per vertex (the simple case of Avis-Fukuda reverse search).
When the origin is strictly inside (every offset below 0, as in reflexive
position) the first vertex costs polynomial time: the greedy basis of the
normals if its point is feasible, else the facets that at most dim ray
shots from the origin meet.  Otherwise it is the first feasible facet
subset, which an adversarial facet order can make exponential.  Anything
irregular goes to the exact fallback, a scan that solves every nonsingular
facet subset and words the failure; the scan can take exponential time.
Everything else is read off the vertex figures: an edge joins the two
vertices that share all but one active facet.  A polytope object enumerates
itself at most once: its vertices and edges are computed on first use and
kept on the object, and so are each vertex's sorted active facets and its
fixed-point label.  monotone_normalize decides whether some translation
puts the polytope in reflexive position (every offset -1, all vertices on
the lattice), which is the combinatorial face of monotonicity.  It solves
for the translation first and enumerates only the reflexive copy; it keeps
its answer for the last few distinct polytopes, so equal polytopes parsed
apart are enumerated once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import Empty, InvalidInput, NotDelzant, NotMonotone, Unbounded
from .lattice import Vector, as_vector, content
from .serialize import fraction_from_json, fraction_to_json, load_json

Point = tuple[Fraction, ...]
# A first vertex (basis, d, num, adjugate): the active rows, the positive
# determinant of their matrix A, and A's solution and inverse times d.
Start = tuple[list[int], int, list[int], list[list[int]]]

# The "p/q" offsets that a polytope file spells plainly: ASCII digits, an
# optional minus sign, no spaces, underscores or plus sign.
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")


@dataclass(frozen=True)
class HalfSpace:
    """Constraint <x, normal> >= offset, with a primitive inward normal."""

    normal: Vector
    offset: Fraction

    def __post_init__(self):
        normal = as_vector(self.normal)
        g = content(normal)
        if g == 0:
            raise InvalidInput("facet normal must be nonzero")
        if g != 1:
            raise InvalidInput(f"facet normal {normal} is not primitive (gcd {g})")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", Fraction(self.offset))


@dataclass(frozen=True)
class DelzantPolytope:
    dim: int
    facets: tuple[HalfSpace, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("polytope dimension must be positive")
        facets = tuple(self.facets)
        if not facets:
            raise InvalidInput("a polytope needs at least one facet")
        for f in facets:
            if len(f.normal) != self.dim:
                raise InvalidInput(
                    f"facet normal {f.normal} has length {len(f.normal)}, expected {self.dim}")
        object.__setattr__(self, "facets", facets)

    def facet_name(self, index: int) -> str:
        return f"D{index + 1}"

    @cached_property
    def vertices(self) -> tuple[VertexFigure, ...]:
        """enumerate_vertices(self), computed on first use and kept."""
        return tuple(enumerate_vertices(self))

    @cached_property
    def edges(self) -> tuple[EdgeSegment, ...]:
        """enumerate_edges(self), computed on first use and kept."""
        return tuple(enumerate_edges(self))


@dataclass(frozen=True)
class VertexFigure:
    """A vertex, its active facets, and the primitive outgoing edge directions.

    edge_directions[j] pairs to 1 with the j-th active normal (in sorted facet
    order) and to 0 with the others; it points from the vertex into the
    polytope along an edge.
    """

    position: Point
    incident_facets: frozenset[int]
    edge_directions: tuple[Vector, ...]

    def __hash__(self):
        # The active facets tell the vertices of one polytope apart, and a
        # frozenset keeps its hash; equality still compares every field.
        return hash(self.incident_facets)

    @cached_property
    def active_facets(self) -> tuple[int, ...]:
        """incident_facets in increasing order: edge_directions[j] is dual
        to the normal of active_facets[j].  Computed on first use and kept,
        so the subcircles of one polytope sort each vertex's facets once."""
        return tuple(sorted(self.incident_facets))

    @cached_property
    def label(self) -> str:
        """The name of the fixed point at this vertex (p12, or p(10,11) past
        facet 9), computed on first use and kept."""
        return _point_label(self.active_facets)


@dataclass(frozen=True)
class EdgeSegment:
    """A bounded 1-face; endpoints ordered lexicographically by position."""

    endpoints: tuple[VertexFigure, VertexFigure]
    direction: Vector
    lattice_length: Fraction

    @property
    def tail(self) -> VertexFigure:
        return self.endpoints[0]

    @property
    def head(self) -> VertexFigure:
        return self.endpoints[1]


_MINUS_ONE = Fraction(-1)


def _trusted_halfspace(normal: Vector, offset: Fraction) -> HalfSpace:
    # For a normal that holds the checks of __post_init__ already (a
    # validated half-space's, or a parsed nonempty tuple of ints with gcd 1)
    # and a Fraction offset.  Fields are set one by one, as the generated
    # __init__ does.
    half = object.__new__(HalfSpace)
    object.__setattr__(half, "normal", normal)
    object.__setattr__(half, "offset", offset)
    return half


def _point_label(indices: Sequence[int]) -> str:
    """The name of the vertex cut out by the facets of the sorted indices:
    p12 for facets D1 and D2, p(10,11) once a facet number has two digits."""
    if all(i <= 8 for i in indices):
        return "p" + "".join(str(i + 1) for i in indices)
    return "p(" + ",".join(str(i + 1) for i in indices) + ")"


def _fmt_point(point: Sequence) -> str:
    return "(" + ", ".join(str(c) for c in point) + ")"


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _cramer(rows: Sequence[Vector], rhs: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, [adj(A) b for each b in rhs]) for the square integer matrix A = rows.

    d is det(A) up to a sign that every numerator shares, so numerator / d
    solves A x = b exactly; d = 0 means A is singular and no numerators are
    returned.  Bareiss fraction-free elimination of [A | b ...] followed by
    fraction-free back substitution: every division is exact.
    """
    n = len(rows)
    m = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    width = n + len(rhs)
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0, []
            m[k], m[swap] = m[swap], m[k]
        pivot = m[k]
        p = pivot[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, width):
                row[j] = (p * row[j] - f * pivot[j]) // prev
        prev = p
    numerators = []
    for c in range(n, width):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            x[i] = (prev * row[c] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
        numerators.append(x)
    return prev, numerators


def _offset_pairs(facets: Sequence[HalfSpace]) -> tuple[tuple[int, int], ...]:
    """Each facet's offset as (numerator, denominator): plain integers, which
    hash and compare without the Python-level methods of Fraction."""
    return tuple([(f.offset.numerator, f.offset.denominator) for f in facets])


def _scaled(offsets: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """(L, [p * L / q for each offset (p, q)]) for L the lcm of the denominators q."""
    scale = lcm(*(q for _, q in offsets))
    return scale, [p * (scale // q) for p, q in offsets]


def _scaled_offsets(facets: Sequence[HalfSpace]) -> tuple[int, list[int]]:
    """(L, [offset * L for each facet]) for L the lcm of the offset denominators."""
    return _scaled(_offset_pairs(facets))


def _reduce(row: Sequence[int], echelon: Sequence[tuple[list[int], int]]) -> list[int] | None:
    """row minus its part in the span of the echelon rows, scaled to content 1,
    or None when row lies in that span.  Each echelon row is paired with its
    pivot column and vanishes on the pivot columns of the rows before it."""
    row = list(row)
    for base, c in echelon:
        if row[c]:
            p, f = base[c], row[c]
            row = [p * x - f * y for x, y in zip(row, base)]
    g = content(row)
    return [x // g for x in row] if g else None


def _nonsingular_subsets(rows: Sequence[Vector], n: int) -> Iterator[tuple[int, ...]]:
    """The n-subsets of rows with a nonzero determinant, in combinations order.

    Depth first over index prefixes, each kept in fraction-free echelon form:
    a row that reduces to zero against its prefix makes every extension of
    that prefix singular, so the whole branch is skipped unsolved.
    """
    count = len(rows)
    prefix: list[int] = []
    echelon: list[tuple[list[int], int]] = []
    i = 0
    while True:
        if i <= count - n + len(prefix):      # room for the rows still missing
            row = _reduce(rows[i], echelon)
            if row is not None:
                if len(prefix) + 1 == n:
                    yield (*prefix, i)
                else:
                    prefix.append(i)
                    echelon.append((row, next(c for c, x in enumerate(row) if x)))
            i += 1
        elif prefix:
            i = prefix.pop() + 1
            echelon.pop()
        else:
            return


def _solve_positive(rows: Sequence[Vector],
                    rhs: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """_cramer(rows, rhs) for nonsingular rows, with the sign of d and of
    every numerator turned so that d > 0."""
    det, numerators = _cramer(rows, rhs)
    if det < 0:
        det, numerators = -det, [[-c for c in x] for x in numerators]
    return det, numerators


def _feasible_bases(normals: Sequence[Vector], bounds: Sequence[int],
                    n: int) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """(subset, d, num) for each nonsingular n-subset of rows whose basic
    solution num / d of <x, u> >= b is feasible, d > 0, in combinations order."""
    for subset in _nonsingular_subsets(normals, n):
        det, (num,) = _solve_positive([normals[i] for i in subset],
                                      [[bounds[i] for i in subset]])
        if all(_dot(num, u) >= b * det for u, b in zip(normals, bounds)):
            yield subset, det, num


def _basic_points(normals: Sequence[Vector], bounds: Sequence[int], n: int,
                  scale: int = 1) -> dict[Point, tuple[int, list[int]]]:
    """Each feasible basic solution of <x, u> >= b / scale (rows u of length n),
    mapped to (d, the rows it meets with equality): every nonsingular n-subset
    of rows gives num / (d scale) by Cramer's rule, with d > 0."""
    found: dict[Point, tuple[int, list[int]]] = {}
    for _, det, num in _feasible_bases(normals, bounds, n):
        point = tuple(Fraction(c, det * scale) for c in num)
        if point not in found:
            found[point] = (det, [i for i, (u, b) in enumerate(zip(normals, bounds))
                                  if _dot(num, u) == b * det])
    return found


def _pivot_columns(rows: Sequence[Vector], n: int) -> list[int]:
    """Pivot columns of the row echelon form, by fraction-free elimination."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        k = len(pivots)
        swap = next((r for r in range(k, len(m)) if m[r][c] != 0), None)
        if swap is None:
            continue
        m[k], m[swap] = m[swap], m[k]
        pivot = m[k]
        p = pivot[c]
        for row in m[k + 1:]:
            f = row[c]
            for j in range(c, n):
                row[j] = (p * row[j] - f * pivot[j]) // prev
        prev = p
        pivots.append(c)
    return pivots


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for i in range(n)] for j in range(n)]


def _primitive(row: list[int]) -> list[int]:
    """row divided by its content; a zero row is returned as it is."""
    g = content(row)
    return [x // g for x in row] if g > 1 else row


def _greedy_basis(rows: Sequence[Vector], n: int) -> list[int] | None:
    """The first n-subset that _nonsingular_subsets yields, found without
    backtracking: each row that is independent of those kept so far is
    kept.  O(F) reductions for F rows; None when the rows have rank below n."""
    basis: list[int] = []
    echelon: list[tuple[list[int], int]] = []
    for i, row in enumerate(rows):
        reduced = _reduce(row, echelon)
        if reduced is not None:
            basis.append(i)
            if len(basis) == n:
                return basis
            echelon.append((reduced, next(c for c, x in enumerate(reduced) if x)))
    return None


def _solve_basis(normals: Sequence[Vector], bounds: Sequence[int], basis: Sequence[int],
                 n: int) -> tuple[int, list[int], list[list[int]]]:
    """(d, num, adjugate) for the nonsingular basis rows A: num / d solves
    <x, u_i> = b_i on the basis, d > 0, and adjugate[j] / d is the j-th
    column of the inverse of A.  One elimination carries both."""
    det, (num, *adjugate) = _solve_positive([normals[i] for i in basis],
                                            [[bounds[i] for i in basis], *_identity(n)])
    return det, num, adjugate


def _ray_basis(normals: Sequence[Vector], bounds: Sequence[int], n: int) -> list[int]:
    """A basis of facets met by n ray shots from the origin, which every
    bound b < 0 puts strictly inside; its point is then a vertex.

    Each shot runs along a nonzero integer vector orthogonal to the normals
    met so far (or its negative) and stops at the least ratio
    slack_i / -<u_i, delta>; it meets every tied facet whose normal is
    independent of those met.  The normals must have rank n, so some normal
    pairs to nonzero with each such vector.  The slacks are kept as integers
    over a common positive denominator, and the vectors orthogonal to the
    met normals as an integer basis, one row of it dropped per facet met:
    O(F n + n^2) per shot.
    """
    slacks = [-b for b in bounds]
    free = _identity(n)          # spans the vectors orthogonal to every normal met
    met: list[int] = []
    while len(met) < n:
        pairings = [_dot(u, free[0]) for u in normals]
        if not any(a < 0 for a in pairings):
            pairings = [-a for a in pairings]
        k = -1
        for i, (s, a) in enumerate(zip(slacks, pairings)):
            if a < 0 and (k < 0 or s * pairings[k] > slacks[k] * a):
                k = i
        step, rate = slacks[k], -pairings[k]
        slacks = _primitive([rate * s + step * a for s, a in zip(slacks, pairings)])
        for i, s in enumerate(slacks):
            if s == 0 and i not in met:
                dots = [_dot(normals[i], v) for v in free]
                j = next((j for j, p in enumerate(dots) if p), None)
                if j is None:
                    continue         # dependent on the normals met
                p, pivot = dots[j], free[j]
                free = [_primitive([p * x - q * y for x, y in zip(v, pivot)])
                        for l, (q, v) in enumerate(zip(dots, free)) if l != j]
                met.append(i)
    return sorted(met)


def _start(normals: Sequence[Vector], bounds: Sequence[int], n: int) -> Start | None:
    """(basis, d, num, adjugate) as _solve_basis gives them, for a feasible
    basis: its point num / d is a vertex.  None when there is no vertex.

    When every bound is below 0 the origin is strictly inside, and the start
    costs O(F n^2): the greedy basis when its point is feasible, else the
    basis that n ray shots from the origin meet.  Otherwise the first
    feasible basis in combinations order, which on an adversarial facet order
    can take exponentially many solves.
    """
    if all(b < 0 for b in bounds):
        basis = _greedy_basis(normals, n)
        if basis is None:
            return None
        return _interior_start(normals, bounds, n,
                               (basis, *_solve_basis(normals, bounds, basis, n)))
    basis = next((b for b, _, _ in _feasible_bases(normals, bounds, n)), None)
    if basis is None:
        return None
    return (basis, *_solve_basis(normals, bounds, basis, n))


def _interior_start(normals: Sequence[Vector], bounds: Sequence[int], n: int,
                    greedy: Start) -> Start:
    """_start when every bound is below 0, from the greedy basis solved as
    _solve_basis gives it: that basis when its point is feasible, else the
    basis that n ray shots from the origin meet."""
    _, det, num, _ = greedy
    if all(_dot(num, u) >= b * det for u, b in zip(normals, bounds)):
        return greedy
    basis = _ray_basis(normals, bounds, n)
    return (basis, *_solve_basis(normals, bounds, basis, n))


def _walk(normals: Sequence[Vector], bounds: Sequence[int], n: int,
          start: Start | None = None) -> dict | None:
    """Every vertex of <x, u> >= b, reached by integer pivots from a first
    vertex (start, as _start gives it, which solves it when it is not
    given), or None on anything a simple unimodular polytope cannot show.

    Maps each vertex (integral, since b is) to its active rows and, in the
    same order, its columns: the edge direction e_j followed by <u_i, e_j>
    for every row i.  A vertex is carried as its position followed by its
    slacks <x, u_i> - b_i.  Along e_j the entering row k has the least ratio
    s_k / -<u_k, e_j>; the neighbour is unimodular exactly when
    <u_k, e_j> = -1, and then one rank-1 step moves the point by s_k times
    column j, negates column j and adds <u_k, e_l> times column j to every
    other column l.  No linear system is solved after the first vertex.
    Each edge, named by the n - 1 rows it keeps, is crossed from one end
    only: from the other end the entering row is the one just left, with
    pairing -1 and no tie, so the ratio test there would show nothing new.

    None on: no vertex found, a first basis of determinant other than 1,
    a zero slack outside it (a non-simple first vertex), a tie in the ratio
    test (a non-simple neighbour), a column with no negative pairing (an
    unbounded ray), an entering pairing other than -1, or a row that no
    vertex meets.  Without these, every vertex reached is simple and
    unimodular and each of its edges is bounded and ends at a vertex
    reached; the bounded edges of a pointed polyhedron form a connected
    graph (Balinski), so every vertex is reached, whichever vertex starts.
    """
    if start is None:
        start = _start(normals, bounds, n)
    if start is None or start[1] != 1:
        return None
    basis, _, position, adjugate = start
    columns = [e + [_dot(e, u) for u in normals] for e in adjugate]
    point = position + [_dot(position, u) - b for u, b in zip(normals, bounds)]
    if point[n:].count(0) != n:
        return None
    found = {tuple(position): (list(basis), columns)}
    crossed: set[frozenset[int]] = set()    # edges, by the n - 1 rows they keep
    todo = [point]
    while todo:
        point = todo.pop()
        basis, columns = found[tuple(point[:n])]
        slacks = point[n:]
        for j, col in enumerate(columns):
            edge = frozenset(basis[:j] + basis[j + 1:])
            if edge in crossed:
                continue
            crossed.add(edge)
            k = -1
            for i, (s, a) in enumerate(zip(slacks, col[n:])):
                if a < 0:
                    if k < 0:
                        k, step, pairing, tie = i, s, a, False
                    else:
                        # the sign of step / -pairing minus s / -a
                        order = s * pairing - step * a
                        if order > 0:
                            k, step, pairing, tie = i, s, a, False
                        elif order == 0:
                            tie = True
            if k < 0 or tie or pairing != -1:
                return None
            moved = [p + step * c for p, c in zip(point, col)]
            key = tuple(moved[:n])
            if key in found:
                continue
            turned = []
            for l, other in enumerate(columns):
                t = other[n + k]
                if l == j:
                    turned.append([-c for c in col])
                elif t:
                    turned.append([c + t * d for c, d in zip(other, col)])
                else:
                    turned.append(other)
            found[key] = (basis[:j] + [k] + basis[j + 1:], turned)
            todo.append(moved)
    if len(set().union(*(basis for basis, _ in found.values()))) != len(normals):
        return None
    return found


def enumerate_vertices(polytope: DelzantPolytope,
                       walked: dict | None = None) -> list[VertexFigure]:
    """All vertices in lexicographic order, with smoothness checks.

    walked is the polytope's edge walk (_walk) when the caller has taken it
    already: monotone_normalize does, from the first vertex that it solves
    with the translation.

    Offsets are scaled to integers by the lcm L of their denominators.  On a
    Delzant polytope the vertices come from an edge walk (_walk): a first
    vertex is solved by Cramer's rule (_start), its edge directions read off
    the adjugate, and every further vertex and its edge directions follow by
    one integer pivot, O(F d) per vertex for F facets in dimension d.  The
    first vertex costs O(F d^2) when every offset is below 0, and up to
    C(F, d) solves otherwise.  Anything irregular on the way (a non-simple
    or non-unimodular vertex, an unbounded ray, an unused facet, no vertex
    at all) hands the polytope to the scan, which decides and words the
    failure.

    The scan solves every nonsingular d-subset of facets and keeps the
    feasible basic solutions; the facets they meet with equality are
    active.  At each vertex exactly dim facets must be active and their
    normals must form a Z-basis (d = 1); the edge directions are the columns
    of the inverse normal matrix, read off the adjugate.  With no vertex, a
    full-rank system is Empty; a lower-rank one contains a line and is
    Unbounded exactly when the system on its pivot coordinates has a
    feasible basic solution.  NotDelzant flags smoothness failures.  The
    scan costs up to C(F, d) solves: it stays exponential in the worst case.
    """
    n = polytope.dim
    scale, bounds = _scaled_offsets(polytope.facets)
    if walked is None:
        normals = [f.normal for f in polytope.facets]
        walked = _walk(normals, bounds, n)
        if walked is None:
            return _scan(polytope, normals, bounds, scale)
    vertices = []
    # an integer is its own Fraction, without the gcd that Fraction(c, 1) takes
    fraction = Fraction if scale == 1 else lambda c: Fraction(c, scale)
    for position in sorted(walked):
        basis, columns = walked[position]
        vertices.append(VertexFigure(
            tuple(map(fraction, position)), frozenset(basis),
            tuple(tuple(columns[j][:n]) for j in sorted(range(n), key=basis.__getitem__))))
    return vertices


def _scan(polytope: DelzantPolytope, normals: list[Vector], bounds: list[int],
          scale: int) -> list[VertexFigure]:
    """enumerate_vertices by solving every facet subset; raises on any failure."""
    n = polytope.dim
    found = _basic_points(normals, bounds, n, scale)
    if not found:
        pivots = _pivot_columns(normals, n)
        if len(pivots) < n and _basic_points([tuple(u[c] for c in pivots) for u in normals],
                                             bounds, len(pivots)):
            raise Unbounded("no vertex: the half-space intersection is unbounded")
        raise Empty("the half-space intersection is empty")

    identity = _identity(n)
    vertices = []
    covered: set[int] = set()
    for point in sorted(found):
        det, active = found[point]
        if len(active) != n:
            raise NotDelzant(
                f"{len(active)} facets active at vertex {_fmt_point(point)}; need exactly {n}")
        # exactly n active facets: they are the one subset that produced point
        if det != 1:
            names = ", ".join(polytope.facet_name(i) for i in active)
            raise NotDelzant(
                f"normals at vertex {_fmt_point(point)} ({names}) are not a Z-basis")
        sign, adjugate = _cramer([normals[i] for i in active], identity)
        inverse_cols = tuple(tuple(sign * c for c in col) for col in adjugate)
        for e in inverse_cols:
            if all(_dot(e, u) >= 0 for u in normals):
                raise Unbounded(
                    f"edge ray from vertex {_fmt_point(point)} never leaves the polytope")
        covered.update(active)
        vertices.append(VertexFigure(point, frozenset(active), inverse_cols))
    for i in range(len(normals)):
        if i not in covered:
            raise NotDelzant(f"facet {polytope.facet_name(i)} supports no vertex")
    return vertices


def enumerate_edges(polytope: DelzantPolytope) -> list[EdgeSegment]:
    """Every bounded 1-face once, endpoints sorted, with exact lattice length.

    Read off the vertex figures.  At a vertex v, the edge direction e_j stays
    on every active facet but the j-th, so its edge is cut out by those
    dim - 1 facets and its endpoints are the two vertices active on all of
    them.  enumerate_vertices has checked that the polytope is simple,
    unimodular and bounded (every edge ray leaves it) and that every facet
    supports a vertex, so each such set of facets is shared by exactly two
    vertices.  The lexicographically smaller one is the tail, the direction
    is the tail's e_j, and the lattice length is (head - tail)_k / e_k for
    any k with e_k != 0.  The vertices come in lexicographic order, so
    sorting by their indices sorts the edges by (tail, head) position.
    """
    vertices = polytope.vertices
    ends: dict[frozenset[int], list[tuple[int, Vector]]] = {}
    for i, v in enumerate(vertices):
        for f, e in zip(v.active_facets, v.edge_directions):
            ends.setdefault(v.incident_facets - {f}, []).append((i, e))
    edges = []
    for (i, e), (j, _) in sorted(ends.values(), key=lambda ab: (ab[0][0], ab[1][0])):
        tail, head = vertices[i], vertices[j]
        k = next(k for k, c in enumerate(e) if c)
        a, b = tail.position[k], head.position[k]
        edges.append(EdgeSegment((tail, head), e, Fraction(
            b.numerator * a.denominator - a.numerator * b.denominator,
            a.denominator * b.denominator * e[k])))
    return edges


# Polytopes whose normal form is kept across calls.  A sweep queries one
# polytope with many directions in a row, so a few entries catch every repeat
# while memory stays bounded whatever the number of requests.
_NORMALIZED_KEPT = 16


def monotone_normalize(polytope: DelzantPolytope) -> tuple[Point, DelzantPolytope]:
    """The translation taking every facet offset to -1, plus the translated polytope.

    Raises NotMonotone when no such translation exists.  The translation
    comes first: the greedy basis of the normals fixes the only candidate,
    solved in scaled integers, and every facet must agree with it.  The
    reflexive copy is then built from the validated normals and is the only
    polytope enumerated; its origin is strictly inside, so its first vertex
    costs polynomial time.  One elimination on the greedy basis solves the
    translation, the reflexive copy's point on that basis and the inverse
    of the basis, which is where the copy's edge walk starts.  Once every
    offset is -1, the vertex whose active normals u_j have the dual basis
    e_j sits at -sum_j e_j, so every vertex is a lattice point.  When the
    candidate fails, the polytope given is enumerated first, so a polytope
    that is not Delzant says so before NotMonotone; when the reflexive
    copy's walk fails, the scan of the polytope given (and only that scan)
    words the failure at its own positions.  The result is memoized on the
    polytope's value (dim, normals and offsets as integer pairs), so equal
    polytopes share one translation and one reflexive polytope, with its
    vertices and edges, and finding them hashes no Fraction; a failure is
    not memoized and raises again on the next call.
    """
    facets = polytope.facets
    return _normalized(polytope.dim, tuple([f.normal for f in facets]), _offset_pairs(facets))


@lru_cache(maxsize=_NORMALIZED_KEPT)
def _normalized(dim: int, normals: tuple[Vector, ...],
                offsets: tuple[tuple[int, int], ...]) -> tuple[Point, DelzantPolytope]:
    # Scaled by L, the targets -1 - offset are the integers -L - b.  The
    # greedy basis fixes the only candidate shift; every facet must agree.
    # The same elimination solves the reflexive copy (every bound -1) on
    # that basis, point and inverse, which is where its walk starts.
    scale, bounds = _scaled(offsets)
    targets = [-scale - b for b in bounds]
    basis = _greedy_basis(normals, dim)
    if basis is not None:
        det, (shift, num, *adjugate) = _solve_positive(
            [normals[i] for i in basis],
            [[targets[i] for i in basis], [-1] * dim, *_identity(dim)])
    if basis is None or any(_dot(shift, u) != t * det for u, t in zip(normals, targets)):
        _given(dim, normals, offsets).vertices   # a failure to be Delzant comes first
        raise NotMonotone("no translation takes every facet offset to -1")
    minus_ones = [-1] * len(normals)
    walked = _walk(normals, minus_ones, dim,
                   _interior_start(normals, minus_ones, dim, (basis, det, num, adjugate)))
    reflexive = DelzantPolytope(dim, tuple(_trusted_halfspace(u, _MINUS_ONE) for u in normals))
    if walked is None:
        # a translate fails the walk too, so the scan of the polytope given
        # words the failure at its own positions; should it raise nothing,
        # the reflexive copy's own enumeration decides
        _given(dim, normals, offsets).vertices
        reflexive.vertices
    else:
        vars(reflexive)["vertices"] = tuple(enumerate_vertices(reflexive, walked))
    return tuple(Fraction(c, det * scale) for c in shift), reflexive


def _given(dim: int, normals: tuple[Vector, ...],
           offsets: tuple[tuple[int, int], ...]) -> DelzantPolytope:
    """The polytope of a _normalized key, which its failures are worded on."""
    return DelzantPolytope(dim, tuple(_trusted_halfspace(u, Fraction(p, q))
                                      for u, (p, q) in zip(normals, offsets)))


def in_reflexive_position(polytope: DelzantPolytope) -> bool:
    # a reflexive copy's offsets are all the one shared _MINUS_ONE
    return all(f.offset is _MINUS_ONE or f.offset == -1 for f in polytope.facets)


def _offset_from_json(value) -> Fraction:
    """fraction_from_json(value), without its string parser on the plain
    "p/q" form: a literal matching -?[0-9]+/[0-9]+ with q != 0 is
    Fraction(int(p), int(q)).  Everything else, and a part past the
    interpreter's digit limit for int(), goes to fraction_from_json, so
    every error keeps its type and message."""
    if type(value) is str and _PLAIN_RATIONAL.fullmatch(value):
        p, q = value.split("/")
        try:
            num, den = int(p), int(q)
        except ValueError:
            return fraction_from_json(value)
        if den:
            return Fraction(num, den)
    return fraction_from_json(value)


def polytope_from_json(data) -> DelzantPolytope:
    """Parse {"dim": n, "facets": [{"normal": [...], "offset": ...}, ...]}.

    Each facet is validated once.  Its normal's entries are checked to be
    non-bool ints, then its offset is parsed, then the normal's content is
    checked, so a bad offset is reported before a bad normal.  A nonempty
    normal with gcd 1 holds every check of HalfSpace, so its half-space is
    built without repeating them; an empty, zero or non-primitive normal goes
    through HalfSpace, which words the error.  An offset in the plain "p/q"
    form skips the string parser of Fraction (_offset_from_json).
    """
    if not isinstance(data, dict):
        raise InvalidInput("polytope JSON must be an object")
    if "dim" not in data or "facets" not in data:
        raise InvalidInput('polytope JSON needs "dim" and "facets" keys')
    dim = data["dim"]
    facets = data["facets"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InvalidInput('"dim" must be an integer')
    if not isinstance(facets, list) or not facets:
        raise InvalidInput('"facets" must be a nonempty list')
    halves = []
    for entry in facets:
        if not isinstance(entry, dict) or "normal" not in entry or "offset" not in entry:
            raise InvalidInput(f'each facet needs "normal" and "offset": {entry!r}')
        normal = entry["normal"]
        if (not isinstance(normal, list)
                or not all(isinstance(c, int) and not isinstance(c, bool) for c in normal)):
            raise InvalidInput(f'facet "normal" must be a list of integers: {normal!r}')
        offset = _offset_from_json(entry["offset"])
        normal = tuple(normal)
        if normal and gcd(*normal) == 1:
            halves.append(_trusted_halfspace(normal, offset))
        else:
            halves.append(HalfSpace(normal, offset))
    return DelzantPolytope(dim, tuple(halves))


def load_polytope(path) -> DelzantPolytope:
    return polytope_from_json(load_json(path))


def polytope_to_json(polytope: DelzantPolytope) -> dict:
    return {
        "dim": polytope.dim,
        "facets": [{"normal": list(f.normal), "offset": fraction_to_json(f.offset)}
                   for f in polytope.facets],
    }
