"""Seeded random geometry for the tests.

Random monotone 2d examples are unimodular scrambles of the five smooth
reflexive polygons, which exhausts the classification in dimension two up to
lattice symmetry, so scrambling covers the whole space the checks care about.
"""

import random
from fractions import Fraction

from gromov_width.polytope import DelzantPolytope, HalfSpace

from oracles import laplace_det

# The five smooth reflexive polygons, by inward facet normals (offsets all -1).
REFLEXIVE_2D = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "dP1": ((0, 1), (-1, -1), (1, 0), (1, 1)),
    "dP2": ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)),
    "dP3": ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)),
}

# For each seed polygon, one semifree circle direction (checked in the
# tests, not assumed).
SEMIFREE_SEED_DIRECTION = {
    "P2": (1, 0),
    "P1xP1": (1, 0),
    "dP1": (0, 1),
    "dP2": (1, 0),
    "dP3": (1, 0),
}

# Semifree directions whose maximum is moreover an isolated point.  The
# hexagon dP3 is absent on purpose: it has no such direction, an absence one
# of the tests pins down by exhaustion.
ISOLATED_MAX_DIRECTION = {
    "P2": (1, 0),
    "P1xP1": (1, 1),
    "dP1": (0, 1),
    "dP2": (1, 1),
}

# Width of each seed under its ISOLATED_MAX_DIRECTION circle.
SEED_WIDTH = {"P2": 3, "P1xP1": 2, "dP1": 2, "dP2": 2}


def random_unimodular(rng, dim, steps=12):
    """Random element of GL(dim, Z) via shears, swaps and sign flips."""
    mat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(dim):
                mat[i][k] += c * mat[j][k]
        elif op == 1 and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif op == 2:
            mat[i] = [-x for x in mat[i]]
    return mat


def unimodular_inverse(mat):
    """Inverse of an integer matrix with det +-1, via the adjugate."""
    n = len(mat)
    d = laplace_det(mat)
    assert d in (1, -1)
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = (-1) ** (i + j) * (laplace_det(minor) if minor else 1)
            row.append(cof * d)
        inv.append(row)
    return inv


def _matvec(mat, vec):
    return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec)))
                 for i in range(len(mat)))


def transform_polytope(polytope, mat, translation):
    """Image of {x : <x,n> >= l} under x -> Ax + t.

    Normals map by the inverse transpose, offsets pick up <t, n'>.
    """
    inv = unimodular_inverse(mat)
    facets = []
    for f in polytope.facets:
        normal = tuple(sum(inv[i][j] * f.normal[i] for i in range(len(inv)))
                       for j in range(len(inv)))
        offset = f.offset + sum(Fraction(t) * c for t, c in zip(translation, normal))
        facets.append(HalfSpace(normal, offset))
    return DelzantPolytope(polytope.dim, tuple(facets))


def transform_covector(xi, mat):
    """Covectors transform the same way as facet normals."""
    inv = unimodular_inverse(mat)
    return tuple(sum(inv[i][j] * xi[i] for i in range(len(inv)))
                 for j in range(len(inv)))


def reflexive_polytope(name):
    return DelzantPolytope(
        2, tuple(HalfSpace(n, Fraction(-1)) for n in REFLEXIVE_2D[name]))


def scrambled_monotone_2d(rng):
    """A random monotone 2d example: scrambled, translated reflexive polygon.

    Returns (name, matrix, translation, polytope); the polytope normalizes
    back to a lattice translate of the seed, and the seed's semifree
    direction transported by the matrix stays semifree.
    """
    name = rng.choice(sorted(REFLEXIVE_2D))
    mat = random_unimodular(rng, 2)
    translation = (rng.randrange(-5, 6), rng.randrange(-5, 6))
    poly = transform_polytope(reflexive_polytope(name), mat, translation)
    return name, mat, translation, poly


# Product factors: the polygons plus the projective line, the segment [-1, 1].
FACTOR_NORMALS = {**REFLEXIVE_2D, "P1": ((1,), (-1,))}
FACTOR_ISOLATED_MAX_DIRECTION = {**ISOLATED_MAX_DIRECTION, "P1": (1,)}


def reflexive_product(*names):
    """Product of reflexive factors, each in its own block of coordinates."""
    blocks = [FACTOR_NORMALS[name] for name in names]
    dim = sum(len(block[0]) for block in blocks)
    facets = []
    start = 0
    for block in blocks:
        size = len(block[0])
        for normal in block:
            full = [0] * dim
            full[start:start + size] = normal
            facets.append(HalfSpace(tuple(full), Fraction(-1)))
        start += size
    return DelzantPolytope(dim, tuple(facets))


def scrambled_monotone_product(rng, names):
    """A scrambled reflexive product, translated by a rational vector.

    The translation has denominators 1 to 3, so the offsets come out with
    mixed denominators.  Returns (matrix, translation, polytope, xi): xi is
    the diagonal of the factors' isolated-max circles carried through the
    matrix, whose width is the least factor width, or None when a factor (the
    hexagon dP3) has no such circle.
    """
    base = reflexive_product(*names)
    mat = random_unimodular(rng, base.dim)
    translation = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                        for _ in range(base.dim))
    poly = transform_polytope(base, mat, translation)
    xi = None
    if all(name in FACTOR_ISOLATED_MAX_DIRECTION for name in names):
        xi = transform_covector(
            sum((FACTOR_ISOLATED_MAX_DIRECTION[name] for name in names), ()), mat)
    return mat, translation, poly, xi


def random_delzant_3d(rng):
    """A random smooth 3d polytope: scrambled box, simplex or wedge prism."""
    kind = rng.randrange(3)
    if kind == 0:
        sides = [rng.randrange(1, 4) + Fraction(rng.randrange(2), 2)
                 for _ in range(3)]
        facets = []
        for axis in range(3):
            e = tuple(1 if i == axis else 0 for i in range(3))
            ne = tuple(-c for c in e)
            facets.append(HalfSpace(e, Fraction(0)))
            facets.append(HalfSpace(ne, -sides[axis]))
    elif kind == 1:
        size = rng.randrange(1, 5) + Fraction(rng.randrange(2), 2)
        facets = [HalfSpace((1, 0, 0), Fraction(0)),
                  HalfSpace((0, 1, 0), Fraction(0)),
                  HalfSpace((0, 0, 1), Fraction(0)),
                  HalfSpace((-1, -1, -1), -size)]
    else:
        size = rng.randrange(1, 4) + Fraction(rng.randrange(2), 2)
        height = rng.randrange(1, 4) + Fraction(rng.randrange(2), 2)
        facets = [HalfSpace((1, 0, 0), Fraction(0)),
                  HalfSpace((0, 1, 0), Fraction(0)),
                  HalfSpace((-1, -1, 0), -size),
                  HalfSpace((0, 0, 1), Fraction(0)),
                  HalfSpace((0, 0, -1), -height)]
    poly = DelzantPolytope(3, tuple(facets))
    mat = random_unimodular(rng, 3)
    translation = tuple(rng.randrange(-3, 4) for _ in range(3))
    return transform_polytope(poly, mat, translation)


def random_isotropy_instance(rng, dim):
    """A (xi, normals) pair with saturated normals, for the isotropy oracle.

    Normals are leading rows of a random unimodular matrix, so their span is
    saturated and the maximal-minor gcd really computes the isotropy order.
    """
    r = rng.randrange(0, dim + 1)
    mat = random_unimodular(rng, dim)
    normals = tuple(tuple(row) for row in mat[:r])
    while True:
        xi = tuple(rng.randrange(-6, 7) for _ in range(dim))
        if any(xi):
            break
    return xi, normals


def random_simple_product(rng, dim):
    """A scrambled product of simplices and intervals with random rational sizes.

    A simplex block of size s is {x >= 0, sum x <= s}, an interval block is a
    1-simplex.  The sizes have denominators 1 to 3 and the translation is
    integral or rational, so offsets come out integral or with mixed
    denominators; the result is Delzant but in general not monotone.
    """
    facets = []
    start = 0
    while start < dim:
        size = rng.randint(1, min(3, dim - start))
        block = [tuple(int(i == j) for j in range(size)) for i in range(size)]
        block.append(tuple([-1] * size))
        offsets = [Fraction(0)] * size + [-Fraction(rng.randint(1, 6), rng.randint(1, 3))]
        for normal, offset in zip(block, offsets):
            full = [0] * dim
            full[start:start + size] = normal
            facets.append(HalfSpace(tuple(full), offset))
        start += size
    mat = random_unimodular(rng, dim)
    translation = tuple(Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3]))
                        for _ in range(dim))
    return transform_polytope(DelzantPolytope(dim, tuple(facets)), mat, translation)
