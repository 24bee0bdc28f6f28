"""Independent brute-force oracles.

Nothing here shares an algorithm with the library: determinants are Laplace
expansions, vertices come from Cramer's rule, isotropy orders are read off
maximal minors or a literal mod-q membership scan, feasibility comes from
Fourier-Motzkin elimination, fixed components from a union-find over
zero-weight edges (or from a grouping that counts every vertex of each
face), edges from exit steps along each vertex's edge directions, and a
product from every combination of its factors' components, each validated
again.  Slow and tiny on purpose.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from gromov_width.circle_action import ActionData, FixedComponent, normalize_moment
from gromov_width.errors import EmptyProduct
from gromov_width.polytope import EdgeSegment


def laplace_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        if matrix[0][col] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * laplace_det(minor)
    return total


def minor_gcd_isotropy(xi, normals):
    """Isotropy order as the gcd of all maximal minors of [normals; xi].

    Valid when the normals span a saturated sublattice (all our generated
    instances take them from rows of a unimodular matrix): the gcd of the
    (r+1)-minors is the index of span(normals) + Z*xi inside its saturation,
    which is exactly the isotropy order; it degenerates to 0 when xi already
    lies in the span, matching the fixed-pointwise convention.
    """
    rows = [list(u) for u in normals] + [list(xi)]
    k = len(rows)
    n = len(xi)
    if k > n:
        return 0
    g = 0
    for cols in combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = gcd(g, abs(laplace_det(sub)))
    return g


def _minor_rank(rows, n):
    for size in range(min(len(rows), n), 0, -1):
        for rsel in combinations(range(len(rows)), size):
            for csel in combinations(range(n), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if laplace_det(sub) != 0:
                    return size
    return 0


def scan_isotropy(xi, normals, qmax):
    """Literal scan: largest q <= qmax with xi in span_Z(normals) + q*Z^n.

    Membership mod q is decided by exhausting coefficient tuples in [0, q)^r,
    so keep r <= 2 and qmax small.  Returns 0 when xi lies in the rational
    span (= integer span here, the normals being saturated).
    """
    n = len(xi)
    rows = [list(u) for u in normals]
    if rows and _minor_rank(rows + [list(xi)], n) == _minor_rank(rows, n):
        return 0
    best = 1
    for q in range(2, qmax + 1):
        target = tuple(c % q for c in xi)
        for coeffs in product(range(q), repeat=len(rows)):
            combo = tuple(sum(a * u[i] for a, u in zip(coeffs, rows)) % q
                          for i in range(n))
            if combo == target:
                best = q
                break
    return best


def cramer_vertices(polytope):
    """Vertex positions by solving every dim-subset of facets with Cramer's rule."""
    n = polytope.dim
    facets = polytope.facets
    positions = set()
    for subset in combinations(range(len(facets)), n):
        a = [list(facets[i].normal) for i in subset]
        b = [facets[i].offset for i in subset]
        d = laplace_det(a)
        if d == 0:
            continue
        point = []
        for j in range(n):
            aj = [row[:j] + [b[r]] + row[j + 1:] for r, row in enumerate(a)]
            point.append(Fraction(laplace_det(aj), 1) / d)
        point = tuple(point)
        if all(sum(p * c for p, c in zip(point, f.normal)) >= f.offset for f in facets):
            positions.add(point)
    return positions


def fourier_motzkin_feasible(facets, dim):
    """Exact Fourier-Motzkin test for a nonempty half-space intersection.

    The constraint count can square with every eliminated variable, so keep
    the inputs small.
    """
    cons = [([Fraction(c) for c in f.normal], Fraction(f.offset)) for f in facets]
    for var in range(dim):
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for ca, ba in pos:
            alpha = ca[var]
            for cb, bb in neg:
                beta = cb[var]
                coeffs = [-beta * x + alpha * y for x, y in zip(ca, cb)]
                new.append((coeffs, -beta * ba + alpha * bb))
        cons = new
    return all(b <= 0 for _, b in cons)


def union_find_components(xi, polytope):
    """Fixed components as (label face, complex_dim, weights, H), by union-find.

    Vertices joined by an edge of zero weight <xi, direction> glue into one
    group; the group's face is the set of facets common to its vertices, its
    weights the nonzero pairings at its first vertex and H minus their sum.
    """
    def pair(x, y):
        return sum(a * b for a, b in zip(x, y))

    vertices = polytope.vertices
    index_of = {v.position: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for edge in polytope.edges:
        if pair(xi, edge.direction) == 0:
            a = find(index_of[edge.tail.position])
            b = find(index_of[edge.head.position])
            parent[b] = a
    groups = {}
    for i, v in enumerate(vertices):
        groups.setdefault(find(i), []).append(v)
    comps = []
    for group in groups.values():
        face = tuple(sorted(frozenset.intersection(*(v.incident_facets for v in group))))
        raw = [pair(xi, e) for e in group[0].edge_directions]
        comps.append((face, polytope.dim - len(face),
                      tuple(sorted(w for w in raw if w)), -sum(raw)))
    return comps


def point_name(face, dim):
    """A face's fixed-component label, spelled out: interior, p12 (p(10,11)
    once a facet number has two digits) for a vertex, D1&D2 otherwise."""
    if not face:
        return "interior"
    numbers = [str(i + 1) for i in sorted(face)]
    if len(numbers) < dim:
        return "&".join("D" + k for k in numbers)
    if all(len(k) == 1 for k in numbers):
        return "p" + "".join(numbers)
    return "p(" + ",".join(numbers) + ")"


def grouped_components(xi, polytope):
    """Fixed components by grouping vertices on their nonzero-weight facets,
    with the invariants that make one vertex speak for its group asserted.

    Each group (vertices whose facets with <xi, e_j> != 0 agree) must hold
    every vertex of the face those facets cut out, and all its vertices must
    have one weight sum.  Returns (label, complex_dim, weights, H) per group,
    sorted by (-H, label), the order ActionData keeps.
    """
    vertices = polytope.vertices
    groups = {}
    for v in vertices:
        raw = [sum(a * b for a, b in zip(xi, e)) for e in v.edge_directions]
        face = frozenset(f for f, w in zip(sorted(v.incident_facets), raw) if w)
        groups.setdefault(face, []).append(raw)
    comps = []
    for face, raws in groups.items():
        filled = sum(face <= v.incident_facets for v in vertices)
        assert filled == len(raws), f"group {sorted(face)} does not fill its face"
        sums = {sum(raw) for raw in raws}
        assert len(sums) == 1, f"group {sorted(face)} has weight sums {sorted(sums)}"
        comps.append((point_name(face, polytope.dim), polytope.dim - len(face),
                      tuple(sorted(w for w in raws[0] if w)), -sums.pop()))
    return sorted(comps, key=lambda c: (-c[3], c[0]))


def exit_step_edges(polytope):
    """Every edge by walking each edge direction to the first facet it leaves through.

    Works on the vertices scaled by the lcm L of every offset and coordinate
    denominator, so positions and facet slacks are integers.  The exit step
    along an edge direction e is the least slack / -<e, normal> over the
    facets e leaves through; the far endpoint must be a vertex, at an integer
    multiple of 1/L, and the lattice length is the step.  Edges come sorted by
    (tail, head) position, each found once from either end.
    """
    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    vertices = polytope.vertices
    facets = polytope.facets
    normals = [f.normal for f in facets]
    scale = lcm(*(c.denominator for v in vertices for c in v.position),
                *(f.offset.denominator for f in facets))
    bounds = [f.offset.numerator * (scale // f.offset.denominator) for f in facets]
    points = [tuple(c.numerator * (scale // c.denominator) for c in v.position)
              for v in vertices]
    by_point = dict(zip(points, vertices))
    found = {}
    for point, v in zip(points, vertices):
        slacks = [dot(point, u) - b for u, b in zip(normals, bounds)]
        for e in v.edge_directions:
            step_num, step_den = 0, 0
            for u, s in zip(normals, slacks):
                rate = -dot(e, u)
                if rate > 0 and (step_den == 0 or s * step_den < step_num * rate):
                    step_num, step_den = s, rate
            assert step_num > 0, "degenerate edge"
            step, rem = divmod(step_num, step_den)
            other = tuple(p + step * c for p, c in zip(point, e))
            assert rem == 0 and other in by_point, "edge ends at a non-vertex"
            if point < other:
                key, direction = (point, other), e
            else:
                key, direction = (other, point), tuple(-c for c in e)
            length = Fraction(step, scale)
            assert found.setdefault(key, (direction, length)) == (direction, length)
    return [EdgeSegment((by_point[k[0]], by_point[k[1]]), direction, length)
            for k, (direction, length) in sorted(found.items())]


def materialized_product(parts):
    """The product of actions, built from itertools.product of their components.

    Each combination goes through the public FixedComponent constructor, which
    sorts and validates its weights again; labels join with " x ", a label
    that already holds " x " in parentheses.
    """
    if not parts:
        raise EmptyProduct("a product needs at least one factor")
    parts = [normalize_moment(p) for p in parts]
    if len(parts) == 1:
        return parts[0]

    def wrap(label):
        return f"({label})" if " x " in label else label

    comps = [FixedComponent(label=" x ".join(wrap(c.label) for c in combo),
                            complex_dim=sum(c.complex_dim for c in combo),
                            weights=tuple(w for c in combo for w in c.weights),
                            H=sum(c.H for c in combo))
             for combo in product(*(p.components for p in parts))]
    return ActionData(n=sum(p.n for p in parts), components=tuple(comps))
