"""Exact primitives for the integer lattice Z^n.

Edge directions, facet normals and subcircle generators are all integer
vectors, and every identity downstream is asserted as literal equality, so
this module works purely over Z.  The one nontrivial routine is
quotient_order: it completes a saturated set of normals to a Z-basis by
unimodular column reduction (Hermite style) and reads off the gcd of the
remaining coordinates of the subcircle direction, which is the order of the
isotropy group the subcircle picks up on the corresponding orbit stratum.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InvalidInput, NotUnimodular, ZeroVector

Vector = tuple[int, ...]


def as_vector(coords: Iterable[int]) -> Vector:
    v = tuple(coords)
    if not v:
        raise DimensionMismatch("vectors must have length >= 1")
    for c in v:
        if not isinstance(c, int) or isinstance(c, bool):
            raise InvalidInput(f"integer coordinates required, got {c!r}")
    return v


def content(v: Sequence[int]) -> int:
    """gcd of the absolute coordinates (0 for the zero vector)."""
    return gcd(*(abs(c) for c in v))


def primitive_direction(v: Iterable[int]) -> Vector:
    """Shortest integer vector parallel to v with the same orientation."""
    v = as_vector(v)
    g = content(v)
    if g == 0:
        raise ZeroVector("the zero vector has no direction")
    return tuple(c // g for c in v)


def pairing(x: Iterable[int], y: Iterable[int]) -> int:
    """Integer dot product."""
    x = as_vector(x)
    y = as_vector(y)
    if len(x) != len(y):
        raise DimensionMismatch(f"pairing of lengths {len(x)} and {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def basis_completion_transform(normals: Sequence[Vector], dim: int) -> list[list[int]]:
    """Unimodular T sending the span of the normals onto the leading coordinates.

    Returns an integer dim x dim matrix T with det +-1 such that x |-> x.T
    maps the row span of the normals onto Z^r x 0 (r = number of normals),
    bijectively on lattice points.  Such a T exists iff the normals form part
    of a Z-basis; otherwise NotUnimodular is raised.  Built by gcd column
    operations to column-echelon form, accumulating the operations in T.
    """
    r = len(normals)
    if r > dim:
        raise NotUnimodular(f"{r} normals cannot be independent in rank {dim}")
    m = [list(u) for u in normals]
    t = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]

    def combine(ci: int, cj: int, a11: int, a12: int, a21: int, a22: int) -> None:
        # columns (ci, cj) <- (a11*ci + a21*cj, a12*ci + a22*cj); det must be +-1
        for mat in (m, t):
            for row in mat:
                x, y = row[ci], row[cj]
                row[ci] = a11 * x + a21 * y
                row[cj] = a12 * x + a22 * y

    for i in range(r):
        piv = next((j for j in range(i, dim) if m[i][j] != 0), None)
        if piv is None:
            raise NotUnimodular("normals are linearly dependent")
        if piv != i:
            combine(i, piv, 0, 1, 1, 0)
        for j in range(i + 1, dim):
            if m[i][j] == 0:
                continue
            a, b = m[i][i], m[i][j]
            g, u, v = _xgcd(a, b)
            combine(i, j, u, -(b // g), v, a // g)
    for i in range(r):
        if abs(m[i][i]) != 1:
            raise NotUnimodular(
                f"normals span a proper finite-index sublattice (pivot {m[i][i]})")
    return t


def quotient_order(xi: Iterable[int], normals: Iterable[Iterable[int]]) -> int:
    """Isotropy order of the xi-subcircle on the stratum cut out by the normals.

    The stabilizer lattice of the stratum is the (saturated) span of the
    normals; xi descends to the quotient lattice, and the gcd of its image
    coordinates is the order of the kernel of the induced circle map.  Returns
    0 when xi lies in the span, i.e. the stratum is fixed pointwise; vertices
    (a full basis of normals) always give 0.
    """
    xi = as_vector(xi)
    if content(xi) == 0:
        raise ZeroVector("subcircle direction must be nonzero")
    dim = len(xi)
    norm = [as_vector(u) for u in normals]
    for u in norm:
        if len(u) != dim:
            raise DimensionMismatch("normals must match the ambient dimension")
    t = basis_completion_transform(norm, dim)
    r = len(norm)
    projected = [sum(xi[i] * t[i][j] for i in range(dim)) for j in range(r, dim)]
    return gcd(*(abs(c) for c in projected))
